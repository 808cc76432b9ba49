#!/usr/bin/env python3
"""The ten-condition battery: one frame property, ten numeric witnesses.

Ten conditions that coincide in exact arithmetic are measured as
finite-truncation proxies along a ladder: lower bounds, coordinate
condition numbers, gain probes of analysis/synthesis maps, and the
companion-Gram invertibility.  Uniformity across the ladder stands in for
the closed-range statements that no single truncation can witness.
"""

import framebench as fb

profile = fb.LocalizationProfile(kind="jaffard", s=2.0)
ladder = fb.TruncationLadder((8, 16, 32, 64))


def show(title, report):
    print(f"== {title} ==")
    print(f"ladder {report.ladder}, consistent: {report.consistent}")
    header = f"{'id':>3} {'verdict':<10} {'first':>12} {'last':>12}  statement"
    print(header)
    for w in report.witnesses:
        first, last = w.quantities[0][1], w.quantities[-1][1]
        print(f"{w.id:>3} {w.verdict:<10} {first:>12.4g} "
              f"{last:>12.4g}  {w.statement}")
    print()


show("orthonormal family (everything passes at witness 1)",
     fb.run_battery(lambda n: (fb.VectorFamily.onb(n), fb.VectorFamily.onb(n)),
                    profile, ladder))

show("perturbed orthonormal family (passes with margin (1-eps)^2)",
     fb.run_battery(lambda n: fb.perturbed_onb_family(n, epsilon=0.3, seed=7),
                    profile, ladder))

show("harmonic-decay counterexample (all ten fail together)",
     fb.run_battery(fb.counterexample_family, profile, ladder))

print("note printed with every report:")
print(" ", fb.run_battery(fb.counterexample_family, profile,
                          ladder).coorbit_note)

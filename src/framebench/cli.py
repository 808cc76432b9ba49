"""Command-line driver: JSON configs in, reproducible JSON/CSV reports out.

Commands
--------
analyze    frame/Riesz bounds and decay diagnostics of one family file
rdual      Riesz-dual family, its Gram and the duality verdict for a pair
battery    the ten-condition ladder battery for a named family generator
sampling   stable-sampling verdict for a generator + perturbed sampling set
fixtures   write the harmonic-decay counterexample family and witness tables

Every report embeds the tool version, the SHA-256 of the canonical config,
the seed and the tolerance set, and is serialized with sorted keys so that
identical configs reproduce identical bytes.

Exit codes: 0 success, 2 input error, 3 numerical failure, 4 precondition
evidence failure.  Errors are printed on stderr.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, equivalence, frames, linalg, localization, rdual, sampling
from .errors import (
    BadExponentError,
    FramebenchError,
    InsufficientDataError,
    LadderTooShortError,
)
from .ladder import LADDER_DECAY_FACTOR

EXIT_OK = 0
EXIT_INPUT = 2


class InputError(ValueError):
    """Malformed configuration or unreadable input file."""


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _meta(command: str, config: dict, seed, tol_frame: float) -> dict:
    return {
        "tool": "framebench",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_hash": hashlib.sha256(_canonical(config).encode()).hexdigest(),
        "tolerances": {
            "tol_frame": tol_frame,
            "tol_eig": linalg.TOL_EIG,
            "tol_calc": linalg.TOL_CALC,
            "tol_sing": linalg.TOL_SING,
            "tol_growth": localization.TOL_GROWTH,
            "ladder_decay_factor": LADDER_DECAY_FACTOR,
        },
    }


def _write_text(path, text: str):
    """Write ``text`` to ``path`` whole or not at all: a temp file in the same
    directory is renamed over the target once it is complete."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str, obj: dict):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _load_family(config: dict, key: str) -> frames.VectorFamily:
    if key not in config:
        raise InputError(f"config is missing the {key!r} entry")
    entry = config[key]
    try:
        if isinstance(entry, str):
            return frames.VectorFamily.from_json(_load_json(entry))
        return frames.VectorFamily.from_json(entry)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad family under {key!r}: {exc}") from exc


def _profile(config: dict) -> localization.LocalizationProfile:
    try:
        return localization.LocalizationProfile.from_json(config.get("profile", {}))
    except (TypeError, ValueError, BadExponentError) as exc:
        raise InputError(f"bad localization profile: {exc}") from exc


def _ladder(config: dict, override) -> frames.TruncationLadder:
    sizes = override if override is not None else config.get("ladder")
    if sizes is None:
        raise InputError("no ladder given (config 'ladder' or --ladder)")
    try:
        return frames.TruncationLadder(tuple(int(s) for s in sizes))
    except (TypeError, ValueError, LadderTooShortError) as exc:
        raise InputError(f"bad ladder {sizes!r}: {exc}") from exc


def cmd_analyze(config, out, seed, tol_frame, ladder_override):
    fam = _load_family(config, "family")
    profile = _profile(config)
    g = frames.gram(fam)
    fb = frames.frame_bounds(fam)
    rb = frames.riesz_bounds(fam)
    try:
        decay_fit = localization.fit_decay_exponent(g)
    except InsufficientDataError:
        decay_fit = None
    report = {
        "meta": _meta("analyze", config, seed, tol_frame),
        "label": fam.label,
        "ambient_dim": fam.ambient_dim,
        "member_count": fam.member_count,
        "frame_bounds": {"lower": fb.lower, "upper": fb.upper,
                         "is_frame": fb.is_frame(tol_frame)},
        "riesz_bounds": {"lower": rb.lower, "upper": rb.upper,
                         "is_riesz": rb.is_frame(tol_frame)},
        "profile": profile.to_json(),
        "profile_norm_of_gram": profile.norm(g),
        "jaffard_norm_s2": localization.jaffard_norm(g, 2.0),
        "schur_norm_unit_weight": localization.schur_norm(
            g, localization.WeightSpec(form="subexponential", rate=0.0)),
        "decay_fit": decay_fit,
    }
    _write_json(out, report)


def cmd_rdual(config, out, seed, tol_frame, ladder_override):
    psi = _load_family(config, "psi")
    phi = _load_family(config, "phi")
    omega = rdual.rdual(psi, phi, tol=tol_frame)
    duality = rdual.duality_verdict(psi, omega, tol_frame)
    gm = frames.gram(omega)
    report = {
        "meta": _meta("rdual", config, seed, tol_frame),
        "omega": omega.to_json(),
        "omega_gram_diagonal": [float(v) for v in np.real(np.diag(gm))],
        "duality": duality.to_json(),
    }
    _write_json(out, report)


_BATTERY_GENERATORS = ("onb", "counterexample", "perturbed-onb", "random")


def _battery_generator(config: dict, seed):
    entry = config.get("family", {})
    kind = entry.get("kind", "onb")
    if kind == "onb":
        return lambda n: (frames.VectorFamily.onb(n, label="onb"),
                          frames.VectorFamily.onb(n, label="reference-onb"))
    if kind == "counterexample":
        return equivalence.counterexample_family
    if kind == "perturbed-onb":
        eps = float(entry.get("epsilon", 0.3))
        s = int(entry.get("seed", seed or 0))
        return lambda n: equivalence.perturbed_onb_family(n, epsilon=eps, seed=s)
    if kind == "random":
        s = int(entry.get("seed", seed or 0))

        def gen(n):
            rng = np.random.default_rng((s, n))
            bump = 0.25 * rng.standard_normal((n, n)) / math.sqrt(n)
            psi = frames.VectorFamily(np.eye(n) + bump, label="random")
            return psi, frames.VectorFamily.onb(n, label="reference-onb")

        return gen
    raise InputError(
        f"unknown battery family kind {kind!r}; pick one of {_BATTERY_GENERATORS}"
    )


def cmd_battery(config, out, seed, tol_frame, ladder_override):
    family_gen = _battery_generator(config, seed)
    profile = _profile(config)
    ladder = _ladder(config, ladder_override)
    report = equivalence.run_battery(family_gen, profile, ladder,
                                     tol=tol_frame, seed=seed)
    payload = {"meta": _meta("battery", config, seed, tol_frame)}
    payload.update(report.to_json())
    _write_json(out, payload)


def _generator(config: dict) -> sampling.Generator:
    try:
        return sampling.Generator.from_json(config.get("generator", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad generator config: {exc}") from exc


def _sampling_set(config: dict) -> sampling.SamplingSet:
    if "deltas" in config:
        deltas = config["deltas"]
        window = config.get("window")
        if window is not None and len(deltas) != int(window):
            raise InputError(
                f"deltas cover {len(deltas)} points but window is {window}"
            )
        return sampling.SamplingSet.from_deltas(deltas, config.get("bound"))
    rule = config.get("delta_rule", {"kind": "constant", "value": 0.0})
    try:
        return sampling.SamplingSet.from_json(rule)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad delta rule: {exc}") from exc


def cmd_sampling(config, out, seed, tol_frame, ladder_override):
    gen = _generator(config)
    sset = _sampling_set(config)
    ladder = _ladder(config, ladder_override)
    report = sampling.stable_sampling_verdict(gen, sset, ladder, tol=tol_frame)
    payload = {"meta": _meta("sampling", config, seed, tol_frame)}
    payload.update(report.to_json())
    _write_json(out, payload)
    _write_text(Path(out).with_suffix(".csv"), report.witness_csv())


def cmd_fixtures(config, out, seed, tol_frame, ladder_override):
    sizes = config.get("sizes")
    if ladder_override is not None:
        sizes = list(ladder_override)
    if not sizes:
        raise InputError("fixtures config needs a nonempty 'sizes' list")
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise InputError(f"fixture sizes must be >= 1, got {sizes}")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for n in sizes:
        psi, phi = equivalence.counterexample_family(n)
        omega = rdual.rdual(psi, phi, tol=tol_frame)
        bundle = {
            "meta": _meta("fixtures", config, seed, tol_frame),
            "size": n,
            "psi": psi.to_json(),
            "reference": phi.to_json(),
            "omega": omega.to_json(),
            "omega_gram_diagonal": [float(v) for v in
                                    np.real(np.diag(frames.gram(omega)))],
            "expected": equivalence.counterexample_expected(n),
        }
        _write_json(str(outdir / f"counterexample_N{n}.json"), bundle)


_COMMANDS = {
    "analyze": cmd_analyze,
    "rdual": cmd_rdual,
    "battery": cmd_battery,
    "sampling": cmd_sampling,
    "fixtures": cmd_fixtures,
}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return tol


def _sizes(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framebench",
        description="frame-truncation diagnostics: bounds, duals, batteries, sampling",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True,
                        help="output file (directory for 'fixtures')")
    parser.add_argument("--seed", type=int, default=None, help="seed recorded "
                        "in the report and used by random generators")
    parser.add_argument("--tol-frame", type=_tolerance, default=frames.TOL_FRAME,
                        help="lower-bound threshold for frame/Riesz verdicts")
    parser.add_argument("--ladder", type=_sizes, default=None,
                        help="comma-separated sizes, overrides the config ladder")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_json(args.config)
        if not isinstance(config, dict):
            raise InputError("config root must be a JSON object")
        _COMMANDS[args.command](config, args.out, args.seed, args.tol_frame,
                                args.ladder)
    except FramebenchError as exc:
        kind = ("precondition failure" if exc.exit_code == FramebenchError.exit_code
                else "numerical failure")
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:  # InputError and malformed values in the config
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

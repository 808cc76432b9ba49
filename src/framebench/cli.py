"""Command-line driver: JSON configs in, reproducible JSON/CSV reports out.

Commands
--------
analyze    frame/Riesz bounds and decay diagnostics of one family file
rdual      Riesz-dual family, its Gram and the duality verdict for a pair
battery    the ten-condition ladder battery for a named family generator
sampling   stable-sampling verdict for a generator + perturbed sampling set
fixtures   write the harmonic-decay counterexample family and witness tables

Each command returns its files as ``{path: report}``, a str (the witness
CSV) written as it is, a dict as JSON.  ``main`` adds to every JSON report
a ``meta`` entry (the tool version, the SHA-256 of the canonical config,
the seed and the tolerance set), sorts its keys, so that identical configs
reproduce identical bytes, and writes all of the command's files or none.

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

from . import (__version__, equivalence, fields, frames, linalg, localization, rdual,
               sampling)
from .errors import FramebenchError, InputError, InsufficientDataError
from .ladder import LADDER_DECAY_FACTOR

EXIT_OK = 0


def _load_json(path: str) -> dict:
    """The JSON value in the file ``path``; a file that cannot be read or
    decoded is an ``InputError`` that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, an unreadable file
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    # bad syntax, an integer literal past Python's digit limit, or arrays and
    # objects nested deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _meta(config: dict, args) -> dict:
    return {
        "tool": "framebench",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "config_hash": hashlib.sha256(json.dumps(
            config, sort_keys=True, separators=(",", ":")).encode()).hexdigest(),
        "tolerances": {
            "tol_frame": args.tol_frame,
            "tol_eig": linalg.TOL_EIG,
            "tol_calc": linalg.TOL_CALC,
            "tol_sing": linalg.TOL_SING,
            "tol_growth": localization.TOL_GROWTH,
            "ladder_decay_factor": LADDER_DECAY_FACTOR,
        },
    }


def _write_files(files: dict):
    """Write the text of every path in ``files`` whole, or none of them.

    Each text goes to a temp file next to its target first; only when all
    are complete and no target is a directory are they renamed over their
    targets.  A path that cannot be written is an ``InputError`` that names
    it; every check runs before the first rename.
    """
    staged = []
    try:
        for path, text in files.items():
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
            staged.append((tmp, target))
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
        for _, target in staged:
            if target.is_dir():
                raise InputError(f"cannot write {target}: Is a directory")
        for tmp, target in staged:
            os.replace(tmp, target)
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _section(what: str, entry, parse):
    """``parse(entry)`` for one config section.  A section that is not
    a JSON object, lacks a field or holds a bad value is an ``InputError``
    that names the section."""
    if not isinstance(entry, dict):
        raise InputError(
            f"bad {what}: expected a JSON object, got {type(entry).__name__}")
    try:
        return parse(entry)
    except KeyError as exc:
        raise InputError(f"bad {what}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _load_family(config: dict, key: str) -> frames.VectorFamily:
    if key not in config:
        raise InputError(f"config is missing the {key!r} entry")
    entry = config[key]
    if entry == "":  # a path that names no file at all
        raise InputError(f"bad family under {key!r}: no such file: ''")
    if isinstance(entry, str):
        entry = _load_json(entry)
    return _section(f"family under {key!r}", entry, frames.VectorFamily.from_json)


def _profile(config: dict) -> localization.LocalizationProfile:
    return _section("localization profile", config.get("profile", {}),
                    localization.LocalizationProfile.from_json)


def _ladder(config: dict) -> frames.TruncationLadder:
    if "ladder" not in config:
        raise InputError("config is missing the 'ladder' entry")
    return frames.TruncationLadder(fields.require_sizes("ladder", config["ladder"]))


def cmd_analyze(config, args):
    fam = _load_family(config, "family")
    profile = _profile(config)
    g = frames.gram(fam)
    fb = frames.frame_bounds(fam)
    rb = frames.riesz_bounds(fam)
    try:
        decay_fit = localization.fit_decay_exponent(g)
    except InsufficientDataError:
        decay_fit = None
    return {args.out: {
        "label": fam.label,
        "ambient_dim": fam.ambient_dim,
        "member_count": fam.member_count,
        "frame_bounds": {"lower": fb.lower, "upper": fb.upper,
                         "is_frame": fb.is_frame(args.tol_frame)},
        "riesz_bounds": {"lower": rb.lower, "upper": rb.upper,
                         "is_riesz": rb.is_frame(args.tol_frame)},
        "profile": profile.to_json(),
        "profile_norm_of_gram": profile.norm(g),
        "jaffard_norm_s2": localization.jaffard_norm(g, 2.0),
        "schur_norm_unit_weight": localization.schur_norm(
            g, localization.WeightSpec(form="subexponential", rate=0.0)),
        "decay_fit": decay_fit,
    }}


def _companion(omega: frames.VectorFamily) -> dict:
    """The report entries of a Riesz-dual companion: the family and the
    diagonal of its Gram."""
    return {"omega": omega.to_json(),
            "omega_gram_diagonal": [float(v) for v in
                                    np.real(np.diag(frames.gram(omega)))]}


def cmd_rdual(config, args):
    psi = _load_family(config, "psi")
    phi = _load_family(config, "phi")
    omega = rdual.rdual(psi, phi, tol=args.tol_frame)
    duality = rdual.duality_verdict(psi, omega, args.tol_frame)
    return {args.out: dict(_companion(omega), duality=duality.to_json())}


#: The (optional, required) fields of each battery family kind.
_BATTERY_KINDS = {"onb": ((), ()), "counterexample": ((), ()),
                  "perturbed-onb": (("epsilon", "seed"), ())}


def _battery_generator(entry: dict, seed):
    """The family generator of a battery ``family`` entry, and the seed it
    draws with: the entry's ``seed``, else ``--seed``, else 0 for
    ``perturbed-onb``; ``--seed`` for the kinds that draw nothing."""
    kind = fields.require_tagged(entry, _BATTERY_KINDS, "battery family kind", "onb")
    if kind == "onb":
        return (lambda n: (frames.VectorFamily.onb(n, label="onb"),
                           frames.VectorFamily.onb(n, label="reference-onb"))), seed
    if kind == "counterexample":
        return equivalence.counterexample_family, seed
    eps = float(fields.require_finite("epsilon", entry.get("epsilon", 0.3)))
    s = fields.require_integer("seed", entry.get("seed", seed or 0), minimum=0)
    return (lambda n: equivalence.perturbed_onb_family(n, epsilon=eps, seed=s)), s


def cmd_battery(config, args):
    family_gen, seed = _section("battery family", config.get("family", {}),
                                lambda entry: _battery_generator(entry, args.seed))
    report = equivalence.run_battery(family_gen, _profile(config),
                                     _ladder(config), tol=args.tol_frame)
    return {args.out: dict(report.to_json(), seed=seed)}


def cmd_sampling(config, args):
    if Path(args.out).suffix == ".csv":  # the witness CSV goes next to the report
        raise InputError(f"--out {args.out!r} is the witness CSV's own path; "
                         "give the JSON report's path")
    gen = _section("generator config", config.get("generator", {}),
                   sampling.Generator.from_json)
    points = _section("delta rule", config.get("delta_rule", {}),
                      sampling.SamplingSet.from_json)
    report = sampling.stable_sampling_verdict(gen, points, _ladder(config),
                                              tol=args.tol_frame)
    return {args.out: report.to_json(),
            Path(args.out).with_suffix(".csv"): report.witness_csv()}


def cmd_fixtures(config, args):
    sizes = fields.require_sizes("fixture sizes", config.get("sizes", []))
    if not sizes or min(sizes) < 1:
        raise InputError("fixtures config needs a nonempty 'sizes' list of sizes >= 1, "
                         f"got {list(sizes)}")
    files = {}
    for n in sizes:
        psi, phi = equivalence.counterexample_family(n)
        files[Path(args.out) / f"counterexample_N{n}.json"] = {
            "size": n,
            "psi": psi.to_json(),
            "reference": phi.to_json(),
            **_companion(rdual.rdual(psi, phi, tol=args.tol_frame)),
            "expected": equivalence.counterexample_expected(n),
        }
    return files


_COMMANDS = {
    "analyze": cmd_analyze,
    "rdual": cmd_rdual,
    "battery": cmd_battery,
    "sampling": cmd_sampling,
    "fixtures": cmd_fixtures,
}

#: The top-level fields of each command's config.
_CONFIG_FIELDS = {
    "analyze": ("family", "profile"),
    "rdual": ("psi", "phi"),
    "battery": ("family", "profile", "ladder"),
    "sampling": ("generator", "delta_rule", "ladder"),
    "fixtures": ("sizes",),
}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text!r}")
    return tol


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, the seed rule of ``fields``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framebench",
        description="frame-truncation diagnostics: bounds, duals, batteries, sampling",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True,
                        help="output file (directory for 'fixtures')")
    parser.add_argument("--seed", type=_seed, default=None, help="seed recorded "
                        "in the report and used by random generators")
    parser.add_argument("--tol-frame", type=_tolerance, default=frames.TOL_FRAME,
                        help="lower-bound threshold for frame/Riesz verdicts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        names = _CONFIG_FIELDS[args.command]
        config = _section(f"{args.command} config", _load_json(args.config),
                          lambda c: fields.require_fields(c, names))
        files = _COMMANDS[args.command](config, args)
        meta = _meta(config, args)
        _write_files({path: report if isinstance(report, str)
                      else _json_text(dict(report, meta=meta))
                      for path, report in files.items()})
    except (FramebenchError, ValueError, MemoryError) as exc:
        # each library error states its exit code; any other ValueError and
        # a size whose arrays cannot be allocated are input errors
        code = getattr(exc, "exit_code", InputError.exit_code)
        label = {2: "error", 3: "numerical failure"}.get(code, "precondition failure")
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

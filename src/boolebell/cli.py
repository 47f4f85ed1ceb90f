"""Batch command-line front end.

Subcommands map one-to-one onto library operations; every run is
reproducible from its flags (outputs embed the seed and a config hash and
contain no timestamps).  Each handler returns one :class:`Report`, and
:func:`_render` writes it in the chosen format, so all commands share one
output path.  Exit codes: 0 success/pass, 1 statistical verdict failure
(the expected outcome when a demo asserts the impossible), 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import re
import sys
from collections import namedtuple
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

# geometry, which needs no numpy and no dataclasses, loads here for every
# command; each handler imports the layers it calls, so only the sampling
# commands load numpy, and json is imported where text is parsed or written
# as JSON, so --version and a csv or text sweep never load it
from . import MODEL_NAMES, __version__
from .geometry import (
    ColinearAxes, UnitVector3, angle_between, clamp_unit_dot, geometric_witness, optimal_witness,
)

if TYPE_CHECKING:
    from .experiments import ExperimentConfig
    from .sequences import SignSequence

FORMATS = ("text", "csv", "json")
SEED_LIMIT = 1 << 64  # the rng keys on 64 bits; larger or negative seeds would alias
SWEEP_MAX_ROWS = 1_000_000  # a sweep holds its rows in memory until it renders them
# rows a dump builds and writes at a time: at n = 1e6, 16,384 peak at 72.6 MiB (sign-sphere) and
# 48.9 (sign-circle), 65,536 at 80.7 and 56.9, at no cost in wall time (medians of 12, 2-vCPU VM)
_DUMP_ROWS = 16_384


def _seed(text: str) -> int:
    """A ``--seed`` in [0, 2**64), from ASCII digits; a config file's is ExperimentConfig's."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= (seed := int(text)) < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _json(text: str, source: str):
    """Parse the JSON text of a flag, vector or file; an error names ``source``."""
    import json
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ValueError(f"{source} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # lists or objects nested past the recursion limit
        raise ValueError(f"{source} is nested too deeply to parse: {exc}") from exc


def _parse_vector(value) -> UnitVector3:
    """A direction from flag text like "[1,0,0]", or a config file's list."""
    triple = _json(value, f"vector {value!r}") if isinstance(value, str) else value
    if not isinstance(triple, list) or len(triple) != 3:
        raise ValueError(f"expected three components, got {value!r}")
    for c in triple:  # float() would take "1" and True, and bool is an int
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise ValueError(f"expected three numbers, got {value!r}")
    try:
        return UnitVector3.from_iterable(triple)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"expected numbers within the float range, got {value!r}") from exc
    except ValueError as exc:  # a zero, infinite or NaN vector
        raise ValueError(f"expected a finite non-zero vector, got {value!r}") from exc


def _read_text(path: str, flag: str) -> str:
    """A UTF-8 input file's text; an error names the flag and the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {flag} file {path}: {exc}") from exc


def _parse_sequence(text: str, flag: str) -> SignSequence:
    from .sequences import SignSequence
    if text.startswith("@"):
        text = _read_text(text[1:], flag)
    return SignSequence.from_text(text)


def _dumps(*given) -> tuple:
    """The output file of each (flag, path, sign sequence) whose flag was given."""
    return tuple((flag, path, s.to_text() + "\n") for flag, path, s in given if path is not None)


def _write_files(files, inputs=()) -> None:
    """Write each (flag, path, text), where text is a string or a function
    that writes to the open file; an error names the flag and the file and
    removes the files this run created, so a failed run leaves no
    new file behind (a path that existed, such as /dev/null, is kept).  An output on
    the file of an input (flag, path) or another output exits before any write, unless
    the file exists and is not regular (such as /dev/null), where a write loses nothing."""
    named = {os.path.realpath(path): flag for flag, path in inputs}
    for flag, path, _ in files:
        real = os.path.realpath(path)
        if real in named and (os.path.isfile(real) or not os.path.exists(real)):
            raise ValueError(f"{named[real]} and {flag} both name the file {real}")
        named[real] = flag
    created = []
    try:
        for flag, path, text in files:
            new = not os.path.lexists(path)
            try:
                with Path(path).open("w") as out:
                    if new:
                        created.append(path)
                    out.write(text) if isinstance(text, str) else text(out)
            except OSError as exc:
                raise ValueError(f"cannot write {flag} file {path}: {exc}") from exc
    except BaseException:  # also a MemoryError while a piece is made
        for done in created:
            os.remove(done)
        raise


# --- the one output path ---------------------------------------------------


# collections.namedtuple: a typing.NamedTuple class compiles each annotation,
# which raised a witness sweep's peak RSS by about 0.3 MiB
class Report(namedtuple(
    "Report", "command seed config fields json_keys text_keys table lines files code",
    defaults=(None, None, None, None, (), 0),
)):
    """One command's result, in the shape every output format reads.

    ``fields`` holds a one-row result in csv column order; ``json_keys`` and
    ``text_keys`` pick and order the fields for json and text where those
    differ.  A row-wise result also gives ``table`` (the csv header and
    rows) and ``lines`` (the text, one dict of fields per line), which then
    replace ``fields`` in those formats.  ``files`` holds the (flag, path,
    text) of each side file, such as a dump or plot data, written after
    ``--out`` by :func:`_write_files`.  ``code`` is the exit code.  All but
    the first four fields default to None, or () for ``files`` and 0 for
    ``code``.
    """

    __slots__ = ()


def _config_hash(payload: dict) -> str:
    import hashlib  # loads OpenSSL, which only --format json needs
    import json
    canonical = json.dumps(payload, sort_keys=True, default=UnitVector3.as_list)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _cell(value):
    # a csv cell: directions at full precision as a JSON list
    if isinstance(value, UnitVector3):
        import json
        return json.dumps(value.as_list())
    return value


def _shown(value) -> str:
    # a text value: six-decimal floats and direction components, yes/no flags, joined lists
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, list):
        return ", ".join(map(_shown, value))
    if isinstance(value, UnitVector3):
        return "[" + _shown(value.as_list()) + "]"
    return str(value)


def _write_csv(out, header: list[str], rows) -> None:
    """Write the csv header and rows to the text stream ``out`` through one
    writer, taking each row from ``rows`` as it is written."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _render(report: Report, fmt: str) -> str:
    fields = report.fields
    if fmt == "json":
        import json
        doc = {
            "command": report.command,
            "version": __version__,
            "seed": report.seed,
            "config_hash": _config_hash(report.config),
            **{key: fields[key] for key in report.json_keys or fields},
        }
        text = json.dumps(doc, sort_keys=True, indent=2, default=UnitVector3.as_list)
    elif fmt == "csv":
        header, rows = report.table or (list(fields), [fields])
        cells = ([_cell(row[key]) for key in header] for row in rows)
        _write_csv(buffer := io.StringIO(), header, cells)
        text = buffer.getvalue()
    else:
        lines = report.lines or [{key: fields[key] for key in report.text_keys or fields}]
        text = "\n".join(", ".join(f"{k}={_shown(v)}" for k, v in line.items()) for line in lines)
    return text if text.endswith("\n") else text + "\n"


# --- subcommand handlers -------------------------------------------------


def _cmd_correlate(args) -> Report:
    from .sequences import correlation
    f, g = _parse_sequence(args.f, "--f"), _parse_sequence(args.g, "--g")
    est = correlation(f, g)
    return Report(
        "correlate", args.seed, {"f": f.to_text(), "g": g.to_text()},
        {"n": est.n, "value": est.value, "stderr": est.stderr},
    )


def _cmd_check_boole(args) -> Report:
    from .sequences import boole_bell_lhs
    f, g, h = (_parse_sequence(getattr(args, n), f"--{n}") for n in "fgh")
    lhs = boole_bell_lhs(f, g, h)
    verdict = "PASS" if lhs <= 1.0 else "FAIL"
    return Report(
        "check-boole", args.seed, {"f": f.to_text(), "g": g.to_text(), "h": h.to_text()},
        {"lhs": lhs, "bound": 1.0, "verdict": verdict},
        text_keys=("lhs", "verdict"), code=0 if verdict == "PASS" else 1,
    )


def _cmd_bruteforce(args) -> Report:
    from .sequences import brute_force_max_lhs
    value = brute_force_max_lhs(args.n)
    return Report(
        "bruteforce", args.seed, {"n": args.n}, {"n": args.n, "max_lhs": value},
        text_keys=("max_lhs",), code=0 if value == 1.0 else 1,
    )


def _witness_row(theta_deg: float, a: UnitVector3, b: UnitVector3) -> dict:
    geo = geometric_witness(a, b)
    opt = optimal_witness(a, b)
    return {
        "theta_deg": theta_deg,
        "case": geo.case_label,
        "lhs_geometric": geo.lhs_value,
        "lhs_optimal": opt.lhs_value,
    }


def _witness_sweep(args) -> Report:
    try:
        start, stop, step = (float(part) for part in args.sweep.split(":"))
    except ValueError as exc:
        raise ValueError("--sweep expects START:STOP:STEP in degrees") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("--sweep START, STOP and STEP must be finite")
    if step <= 0:
        raise ValueError("--sweep step must be positive")
    if start > stop + 1e-9:  # the row loop's own condition
        raise ValueError(f"--sweep {args.sweep} computes no row: START is above STOP")
    # a step that cannot advance START at all is reported as such below
    if start + step != start and (stop - start) / step >= SWEEP_MAX_ROWS:
        raise ValueError(f"--sweep {args.sweep} would compute more than {SWEEP_MAX_ROWS} rows")
    rows = []
    theta = start
    a = UnitVector3(1, 0, 0)
    while theta <= stop + 1e-9:
        if theta + step == theta:
            raise ValueError(
                f"--sweep step {step!r} is below the float spacing at {theta!r}, "
                "so the sweep cannot advance"
            )
        t = math.radians(theta)
        b = UnitVector3(math.cos(t), math.sin(t), 0)
        try:
            rows.append(_witness_row(theta, a, b))
        except ColinearAxes as exc:  # the user gave no axes; name the row instead
            raise ValueError(f"--sweep row at {theta} degrees: {exc}") from exc
        theta += step
    text = args.format == "text"  # only text reads the lines
    plots = tuple(
        ("--plot", f"{args.plot}_{series}.dat",
         "".join(f"{r['theta_deg']} {r['lhs_' + series]}\n" for r in rows))
        for series in ("geometric", "optimal") if args.plot is not None
    )
    return Report(
        "witness", args.seed, {"sweep": args.sweep}, {"rows": rows},
        table=(["theta_deg", "case", "lhs_geometric", "lhs_optimal"], rows),
        lines=[dict(r, theta_deg=repr(r["theta_deg"])) for r in rows] if text else None,
        files=plots,
    )


def _cmd_witness(args) -> Report:
    if args.sweep is not None:
        for name in ("a", "b", "optimal", "orthogonal_to"):
            if getattr(args, name) is not None:
                raise ValueError(f"--sweep cannot be combined with --{name.replace('_', '-')}")
        return _witness_sweep(args)
    if args.plot is not None:
        raise ValueError("--plot needs --sweep")
    if args.optimal and args.orthogonal_to:
        raise ValueError("--orthogonal-to cannot be combined with --optimal")
    if args.a is None or args.b is None:
        raise ValueError("witness needs --a and --b (or --sweep)")
    a, b = _parse_vector(args.a), _parse_vector(args.b)
    if args.optimal:
        witness = optimal_witness(a, b)
    else:
        witness = geometric_witness(a, b, orthogonal_to=args.orthogonal_to or "a")
    fields = {
        "theta_deg": math.degrees(angle_between(a, b)),
        "case": witness.case_label,
        "lhs": witness.lhs_value,
        "assignment": witness.assignment,
        "alpha": witness.alpha,
    }
    return Report(
        "witness", args.seed, {"a": a, "b": b, "optimal": bool(args.optimal)}, fields,
        text_keys=("case", "lhs", "assignment", "theta_deg", "alpha"),
    )


def _cmd_simulate_prepared(args) -> Report:
    from .rng import RngStream
    from .sampler import PreparedSource, random_signs, sample_prepared
    from .sequences import correlation
    axis, alpha = _parse_vector(args.axis), _parse_vector(args.alpha)
    base = RngStream(args.seed)
    u = random_signs(args.n, base.substream(0))
    x = sample_prepared(PreparedSource(axis, u), alpha, base.substream(1))
    est = correlation(u, x)
    config = {"axis": axis, "alpha": alpha, "n": args.n, "seed": args.seed}
    return Report(
        "simulate-prepared", args.seed, config,
        dict(config, target=clamp_unit_dot(axis.dot(alpha)), estimate=est.value,
             stderr=est.stderr),
        json_keys=("n", "target", "estimate", "stderr"),
        text_keys=("n", "seed", "target", "estimate", "stderr"),
        files=_dumps(("--dump-u", args.dump_u, u), ("--dump-x", args.dump_x, x)),
    )


def _pair_report(command: str, args, lead: dict, alpha, beta, a_seq, b_seq, last: dict,
                 files: tuple = ()) -> Report:
    """The correlation of two wings measured along alpha and beta, as
    simulate-singlet and lhv report it: ``lead`` fields come first, then
    the directions, n, correlation and stderr, then ``last`` and the seed.
    """
    from .sequences import correlation
    est = correlation(a_seq, b_seq)
    fields = {
        **lead,
        "direction_alpha": alpha,
        "direction_beta": beta,
        "n": args.n,
        "correlation": est.value,
        "stderr": est.stderr,
        **last,
        "seed": args.seed,
    }
    config = {**lead, "alpha": alpha, "beta": beta, "n": args.n, "seed": args.seed}
    return Report(
        command, args.seed, config, fields,
        json_keys=(*lead, "n", "correlation", "stderr", *last),
        text_keys=(*lead, "n", "seed", "correlation", "stderr", *last), files=files,
    )


def _cmd_simulate_singlet(args) -> Report:
    from .rng import RngStream
    from .sampler import sample_singlet
    alpha, beta = _parse_vector(args.alpha), _parse_vector(args.beta)
    a_seq, b_seq = sample_singlet(alpha, beta, args.n, RngStream(args.seed))
    target = clamp_unit_dot(-alpha.dot(beta))
    return _pair_report(
        "simulate-singlet", args, {}, alpha, beta, a_seq, b_seq, {"target": target},
        _dumps(("--dump-a", args.dump_a, a_seq), ("--dump-b", args.dump_b, b_seq)),
    )


def _cmd_lhv(args) -> Report:
    from .realism import make_lhv_model, sample_lhv, sign_model_correlation
    from .rng import RngStream
    alpha, beta = _parse_vector(args.alpha), _parse_vector(args.beta)
    model = make_lhv_model(args.model)
    a_seq, b_seq, hidden = sample_lhv(model, alpha, beta, args.n, RngStream(args.seed))
    files = ()
    if args.dump_lambdas is not None:  # the lambdas are built only here, a piece at a time
        # chain drops each piece's rows before it builds the next piece
        rows = chain.from_iterable(hidden.lambdas(i, i + _DUMP_ROWS).tolist()
                                   for i in range(0, args.n, _DUMP_ROWS))
        files = (("--dump-lambdas", args.dump_lambdas,
                  lambda out: _write_csv(out, ["lambda_x", "lambda_y", "lambda_z"], rows)),)
    closed_form = sign_model_correlation(angle_between(alpha, beta))
    return _pair_report(
        "lhv", args, {"model": args.model}, alpha, beta, a_seq, b_seq, {"closed_form": closed_form},
        files,
    )


# the config-file keys `certify-ap` reads; `experiment` also reads a, b, model
_CONFIG_KEYS = ("seed", "n", "sigma_k", "directions")


def _run_config(args, keys: tuple[str, ...]) -> tuple[dict, ExperimentConfig]:
    """The ``--config`` file's keys, each overridden by its flag when given, and the
    run's config from them.  Only the format is checked here: an object of known keys
    whose ``directions`` is a list of vectors; ExperimentConfig checks each value.
    Flags are typed here or by argparse, so a TypeError from it is the file's."""
    from .experiments import ExperimentConfig
    path = args.config
    settings = {} if path is None else _json(_read_text(path, "--config"), f"config file {path}")
    if not isinstance(settings, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(settings) - set(keys))
    if unknown:
        raise ValueError(
            f"config file has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(keys)}"
        )
    for key in keys:
        if (value := getattr(args, key)) is not None:
            settings[key] = _json(value, "--directions") if key == "directions" else value
    directions = settings.get("directions", [])
    if not isinstance(directions, list):
        source = "--directions" if args.directions is not None else "config file key 'directions'"
        raise ValueError(f"{source} must be a JSON list of vectors, got {directions!r}")
    directions = tuple(map(_parse_vector, directions))
    given = {key: settings[key] for key in ("seed", "n", "sigma_k") if key in settings}
    try:
        cfg = ExperimentConfig(**{"seed": 0, "n": 100_000, **given}, directions=directions)
    except TypeError as exc:  # a file's value of the wrong type; a flag's has none
        raise ValueError(str(exc)) from exc
    return settings, cfg


_REPORT_FIELDS = ["section", "label", "direction", "target", "estimate", "stderr", "gap", "pass"]


def _certificate_rows(cert, which: str) -> list[dict]:
    return [
        dict(row.to_dict(), section=f"certificate_{which}", label="", gap=row.gap)
        for row in cert.rows
    ]


def _cmd_certify_ap(args) -> Report:
    from .experiments import prepared_ap_experiment, singlet_ap_experiment
    if (args.axis is None) == (args.singlet_beta is None):
        raise ValueError("choose exactly one of --axis (prepared) or --singlet-beta")
    _, cfg = _run_config(args, _CONFIG_KEYS)
    if args.axis is not None:
        mode, cert = "prepared-ap", prepared_ap_experiment(_parse_vector(args.axis), cfg)
    else:
        mode, cert = "singlet-ap", singlet_ap_experiment(_parse_vector(args.singlet_beta), cfg)
    lines = [dict(row.to_dict(), direction=_cell(row.direction)) for row in cert.rows]
    lines.append({"verdict": "PASS" if cert.passed else "FAIL"})
    return Report(
        "certify-ap", cfg.seed, dict(cfg.to_dict(), scenario=mode, mode=mode),
        {"certificate": cert.to_dict()},
        table=(_REPORT_FIELDS, _certificate_rows(cert, "u")), lines=lines,
        code=0 if cert.passed else 1,
    )


def _cmd_experiment(args) -> Report:
    from .experiments import no_apbp_experiment
    from .realism import make_lhv_model
    settings, cfg = _run_config(args, (*_CONFIG_KEYS, "a", "b", "model"))
    if settings.get("a") is None or settings.get("b") is None:
        raise ValueError("experiment needs --a and --b (flags or config file)")
    a, b = _parse_vector(settings["a"]), _parse_vector(settings["b"])
    model_name = settings.get("model", "sign-circle")
    result = no_apbp_experiment(a, b, make_lhv_model(model_name), cfg)

    inequality = result.inequality
    cert_u, cert_v = result.certificate_u, result.certificate_v
    summary = {
        "scenario": "no-apbp",
        "model": model_name,
        "a": a,
        "b": b,
        "witness_alpha": inequality.alpha,
        "case": inequality.case_label,
        "assignment": inequality.assignment,
        "target_lhs": inequality.target_lhs,
        "empirical_lhs": inequality.empirical_lhs,
        "gaps": list(inequality.gaps),
        "verdict": inequality.verdict,
        "certificate_u_pass": cert_u.passed,
        "certificate_v_pass": cert_v.passed,
        "failing_margin": result.failing_margin,
        "margin_floor": result.margin_floor,
        "margin_ok": result.margin_ok,
        "contradiction_closed": result.contradiction_closed,
    }
    rows = [
        dict(leg.to_dict(), section="triangle", direction="", **{"pass": ""})
        for leg in result.triangle
    ]
    rows += _certificate_rows(cert_u, "u") + _certificate_rows(cert_v, "v")
    groups = (("case", "assignment", "target_lhs", "empirical_lhs"), ("gaps",),
              ("certificate_u_pass", "certificate_v_pass"),
              ("failing_margin", "margin_floor", "contradiction_closed"))
    lines = [{key: summary[key] for key in group} for group in groups]
    report = Report(
        "experiment", cfg.seed, dict(cfg.to_dict(), scenario="no-apbp", a=a, b=b, model=model_name),
        dict(summary, detail=result.to_dict()),
        table=(_REPORT_FIELDS, rows), lines=lines,
        code=0 if (cert_u.passed and cert_v.passed) else 1,
    )
    if args.summary is None:
        return report
    summary_text = _render(report._replace(json_keys=tuple(summary)), "json")
    return report._replace(files=(("--summary", args.summary, summary_text),))


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolebell",
        description="Samplers, witnesses, and certification experiments for the "
        "three-sequence correlation bound.",
    )
    parser.add_argument("--version", action="version", version=f"boolebell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, about: str, seed: int | None = 0) -> argparse.ArgumentParser:
        # seed None: the config file's seed, or 0, applies unless --seed is given
        p = sub.add_parser(name, help=about)
        p.set_defaults(handler=handler, seed=seed)
        return p

    p = command("correlate", _cmd_correlate, "correlation of two sign sequences")
    p.add_argument("--f", required=True, help="sign sequence, e.g. '+--+' (or @file)")
    p.add_argument("--g", required=True, help="sign sequence (or @file)")

    p = command("check-boole", _cmd_check_boole, "evaluate the three-sequence bound")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)

    p = command("bruteforce", _cmd_bruteforce, "exhaustive maximum of the bound at length n")
    p.add_argument("--n", type=int, required=True)

    p = command("witness", _cmd_witness, "violation witness directions and values")
    p.add_argument("--a", help="first axis as JSON vector")
    p.add_argument("--b", help="second axis as JSON vector")
    # store_const leaves None when absent, so every flag's presence is one test
    p.add_argument("--optimal", action="store_const", const=True, help="exactly maximized witness")
    p.add_argument("--orthogonal-to", choices=("a", "b"))  # None reads as "a"
    p.add_argument("--sweep", help="angle sweep START:STOP:STEP in degrees "
                   "(a negative START needs the --sweep=START:STOP:STEP form)")
    p.add_argument("--plot", help="prefix for two-column plot data files")

    p = command("simulate-prepared", _cmd_simulate_prepared, "measure an axis-prepared stream")
    p.add_argument("--axis", required=True, help="preparation axis as JSON vector")
    p.add_argument("--alpha", required=True, help="measurement direction as JSON vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-u", help="write preparation signs to this path")
    p.add_argument("--dump-x", help="write measured signs to this path")

    p = command("simulate-singlet", _cmd_simulate_singlet, "measure singlet pairs")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-a", help="write near-wing signs to this path")
    p.add_argument("--dump-b", help="write far-wing signs to this path")

    p = command("lhv", _cmd_lhv, "sample a local deterministic model")
    p.add_argument("--model", choices=MODEL_NAMES, default="sign-circle")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-lambdas", help="write hidden draws as CSV to this path")

    p = command("certify-ap", _cmd_certify_ap, "certify axis-prepared behavior", seed=None)
    p.add_argument("--axis", help="prepared mode: the true preparation axis")
    p.add_argument("--singlet-beta", help="singlet mode: far-wing direction")
    _add_run_flags(p, "JSON list of measurement directions")

    p = command(
        "experiment", _cmd_experiment,
        "two-axis certification of a local model (the contradiction demo)", seed=None,
    )
    p.add_argument("--a", help="first claimed axis")
    p.add_argument("--b", help="second claimed axis")
    p.add_argument("--model", choices=MODEL_NAMES)
    _add_run_flags(p, "JSON list of extra certification directions")
    p.add_argument("--summary", help="also write a JSON summary to this path")

    for p in sub.choices.values():
        p.add_argument("--seed", type=_seed)
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument(
            "--format", choices=FORMATS, default="text", help="output format (default text)"
        )
    return parser


def _add_run_flags(p: argparse.ArgumentParser, directions_help: str) -> None:
    # the flags certify-ap and experiment share; each overrides a config-file key
    p.add_argument("--directions", help=directions_help)
    p.add_argument("--config", help="JSON config file; a flag overrides its key")
    p.add_argument("--n", type=int)
    p.add_argument("--sigma-k", type=float)


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
        text = _render(report, args.format)
        out = (("--out", args.out, text),) if args.out is not None else ()
        given = {flag: getattr(args, flag[2:], None) for flag in ("--config", "--f", "--g", "--h")}
        inputs = [(flag, path if flag == "--config" else path[1:]) for flag, path in given.items()
                  if path is not None and (flag == "--config" or path.startswith("@"))]
        _write_files(out + report.files, inputs)
        if args.out is None:
            sys.stdout.write(text)
        return report.code
    except (ValueError, OverflowError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the whole-sequence commands hold all n outcomes in memory
        print(f"error: out of memory ({exc or 'allocation failed'}); try a smaller --n",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

"""Batch command-line front end.

Subcommands map one-to-one onto library operations; every run is
reproducible from its flags (outputs embed the seed and a config hash and
contain no timestamps).  Exit codes: 0 success/pass, 1 statistical verdict
failure (the expected outcome when a demo asserts the impossible),
2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    ExperimentConfig,
    no_apbp_experiment,
    prepared_ap_experiment,
    singlet_ap_experiment,
)
from .geometry import (
    UnitVector3,
    geometric_witness,
    optimal_witness,
)
from .realism import MODEL_NAMES, make_lhv_model, sample_lhv, sign_model_correlation
from .rng import RngStream
from .sampler import PreparedSource, random_signs, sample_prepared, sample_singlet
from .sequences import (
    SignSequence,
    boole_bell_lhs,
    brute_force_max_lhs,
    correlation,
)

FORMATS = ("text", "csv", "json")
SEED_LIMIT = 1 << 64  # the rng keys on 64 bits; larger or negative seeds would alias


def _seed(value) -> int:
    """A seed in [0, 2**64), from a flag or a config file."""
    text = str(value)  # a config file's 5.5 or true must not pass as 5 or 1
    if not text.removeprefix("-").isdigit():
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {value!r}")
    seed = int(text)
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _parse_vector(text: str) -> UnitVector3:
    try:
        triple = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"expected a JSON vector like [1,0,0], got {text!r}") from exc
    if not isinstance(triple, list) or len(triple) != 3:
        raise ValueError(f"expected three components, got {text!r}")
    return UnitVector3.from_iterable(triple)


def _parse_sequence(text: str) -> SignSequence:
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return SignSequence.from_text(text)


def _vector_cell(v: UnitVector3) -> str:
    return json.dumps(v.as_list())


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(fieldnames: list[str], rows: list[dict], out: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buffer.getvalue(), out)


def _emit_json(command: str, seed: int, config: dict, payload: dict, out: str | None) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        **payload,
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2, default=_json_default), out)


def _emit_text(pairs: list[tuple[str, object]], out: str | None) -> None:
    def shown(value):
        if isinstance(value, float):
            return f"{value:.6f}"
        if isinstance(value, UnitVector3):
            return "[" + ", ".join(f"{c:.6f}" for c in value.as_list()) + "]"
        return str(value)

    _emit(", ".join(f"{key}={shown(value)}" for key, value in pairs), out)


def _dump_sequence(seq: SignSequence, path: str) -> None:
    Path(path).write_text(seq.to_text() + "\n")


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument(
        "--format", choices=FORMATS, default="text", help="output format (default text)"
    )


# --- subcommand handlers -------------------------------------------------


def _cmd_correlate(args) -> int:
    f = _parse_sequence(args.f)
    g = _parse_sequence(args.g)
    est = correlation(f, g)
    config = {"f": f.to_text(), "g": g.to_text()}
    if args.format == "csv":
        _emit_csv(
            ["n", "value", "stderr"],
            [{"n": est.n, "value": est.value, "stderr": est.stderr}],
            args.out,
        )
    elif args.format == "json":
        _emit_json(
            "correlate",
            args.seed,
            config,
            {"n": est.n, "value": est.value, "stderr": est.stderr},
            args.out,
        )
    else:
        _emit_text([("n", est.n), ("value", est.value), ("stderr", est.stderr)], args.out)
    return 0


def _cmd_check_boole(args) -> int:
    f, g, h = (_parse_sequence(s) for s in (args.f, args.g, args.h))
    lhs = boole_bell_lhs(f, g, h)
    verdict = "PASS" if lhs <= 1.0 else "FAIL"
    config = {"f": f.to_text(), "g": g.to_text(), "h": h.to_text()}
    if args.format == "csv":
        _emit_csv(
            ["lhs", "bound", "verdict"],
            [{"lhs": lhs, "bound": 1.0, "verdict": verdict}],
            args.out,
        )
    elif args.format == "json":
        _emit_json(
            "check-boole", args.seed, config, {"lhs": lhs, "bound": 1.0, "verdict": verdict}, args.out
        )
    else:
        _emit_text([("lhs", lhs), ("verdict", verdict)], args.out)
    return 0 if verdict == "PASS" else 1


def _cmd_bruteforce(args) -> int:
    value = brute_force_max_lhs(args.n)
    config = {"n": args.n}
    if args.format == "csv":
        _emit_csv(["n", "max_lhs"], [{"n": args.n, "max_lhs": value}], args.out)
    elif args.format == "json":
        _emit_json("bruteforce", args.seed, config, {"n": args.n, "max_lhs": value}, args.out)
    else:
        _emit_text([("max_lhs", value)], args.out)
    return 0 if value == 1.0 else 1


def _witness_row(theta_deg: float, a: UnitVector3, b: UnitVector3) -> dict:
    geo = geometric_witness(a, b)
    opt = optimal_witness(a, b)
    return {
        "theta_deg": theta_deg,
        "case": geo.case_label,
        "lhs_geometric": geo.lhs_value,
        "lhs_optimal": opt.lhs_value,
    }


def _cmd_witness(args) -> int:
    if args.sweep:
        try:
            start, stop, step = (float(part) for part in args.sweep.split(":"))
        except ValueError as exc:
            raise ValueError("--sweep expects START:STOP:STEP in degrees") from exc
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("--sweep START, STOP and STEP must be finite")
        if step <= 0:
            raise ValueError("--sweep step must be positive")
        rows = []
        theta = start
        while theta <= stop + 1e-9:
            if theta + step == theta:
                raise ValueError(
                    f"--sweep step {step!r} is below the float spacing at {theta!r}, "
                    "so the sweep cannot advance"
                )
            t = math.radians(theta)
            a = UnitVector3(1, 0, 0)
            b = UnitVector3(math.cos(t), math.sin(t), 0)
            rows.append(_witness_row(theta, a, b))
            theta += step
        if args.plot:
            for series in ("geometric", "optimal"):
                lines = "\n".join(f"{r['theta_deg']} {r['lhs_' + series]}" for r in rows)
                Path(f"{args.plot}_{series}.dat").write_text(lines + "\n")
        config = {"sweep": args.sweep}
        if args.format == "json":
            _emit_json("witness", args.seed, config, {"rows": rows}, args.out)
        elif args.format == "csv":
            _emit_csv(["theta_deg", "case", "lhs_geometric", "lhs_optimal"], rows, args.out)
        else:
            _emit(
                "\n".join(
                    f"theta_deg={r['theta_deg']:.1f}, case={r['case']}, "
                    f"lhs_geometric={r['lhs_geometric']:.6f}, lhs_optimal={r['lhs_optimal']:.6f}"
                    for r in rows
                ),
                args.out,
            )
        return 0

    if args.a is None or args.b is None:
        raise ValueError("witness needs --a and --b (or --sweep)")
    a, b = _parse_vector(args.a), _parse_vector(args.b)
    report = (
        optimal_witness(a, b)
        if args.optimal
        else geometric_witness(a, b, orthogonal_to=args.orthogonal_to)
    )
    theta_deg = math.degrees(math.acos(max(-1.0, min(1.0, a.dot(b)))))
    config = {"a": a.as_list(), "b": b.as_list(), "optimal": bool(args.optimal)}
    payload = {
        "theta_deg": theta_deg,
        "case": report.case_label,
        "lhs": report.lhs_value,
        "assignment": report.assignment,
        "alpha": report.alpha.as_list(),
    }
    if args.format == "json":
        _emit_json("witness", args.seed, config, payload, args.out)
    elif args.format == "csv":
        row = dict(payload, alpha=_vector_cell(report.alpha))
        _emit_csv(["theta_deg", "case", "lhs", "assignment", "alpha"], [row], args.out)
    else:
        _emit_text(
            [
                ("case", report.case_label),
                ("lhs", report.lhs_value),
                ("assignment", report.assignment),
                ("theta_deg", theta_deg),
                ("alpha", report.alpha),
            ],
            args.out,
        )
    return 0


def _cmd_simulate_prepared(args) -> int:
    axis = _parse_vector(args.axis)
    alpha = _parse_vector(args.alpha)
    base = RngStream(args.seed)
    u = random_signs(args.n, base.substream(0))
    x = sample_prepared(PreparedSource(axis, u), alpha, base.substream(1))
    if args.dump_u:
        _dump_sequence(u, args.dump_u)
    if args.dump_x:
        _dump_sequence(x, args.dump_x)
    est = correlation(u, x)
    target = max(-1.0, min(1.0, axis.dot(alpha)))
    config = {"axis": axis.as_list(), "alpha": alpha.as_list(), "n": args.n, "seed": args.seed}
    if args.format == "csv":
        _emit_csv(
            ["axis", "alpha", "n", "seed", "target", "estimate", "stderr"],
            [
                {
                    "axis": _vector_cell(axis),
                    "alpha": _vector_cell(alpha),
                    "n": args.n,
                    "seed": args.seed,
                    "target": target,
                    "estimate": est.value,
                    "stderr": est.stderr,
                }
            ],
            args.out,
        )
    elif args.format == "json":
        _emit_json(
            "simulate-prepared",
            args.seed,
            config,
            {"n": args.n, "target": target, "estimate": est.value, "stderr": est.stderr},
            args.out,
        )
    else:
        _emit_text(
            [
                ("n", args.n),
                ("seed", args.seed),
                ("target", target),
                ("estimate", est.value),
                ("stderr", est.stderr),
            ],
            args.out,
        )
    return 0


def _cmd_simulate_singlet(args) -> int:
    alpha = _parse_vector(args.alpha)
    beta = _parse_vector(args.beta)
    a_seq, b_seq = sample_singlet(alpha, beta, args.n, RngStream(args.seed))
    if args.dump_a:
        _dump_sequence(a_seq, args.dump_a)
    if args.dump_b:
        _dump_sequence(b_seq, args.dump_b)
    est = correlation(a_seq, b_seq)
    target = -max(-1.0, min(1.0, alpha.dot(beta)))
    config = {"alpha": alpha.as_list(), "beta": beta.as_list(), "n": args.n, "seed": args.seed}
    if args.format == "csv":
        _emit_csv(
            ["direction_alpha", "direction_beta", "n", "correlation", "stderr", "target", "seed"],
            [
                {
                    "direction_alpha": _vector_cell(alpha),
                    "direction_beta": _vector_cell(beta),
                    "n": args.n,
                    "correlation": est.value,
                    "stderr": est.stderr,
                    "target": target,
                    "seed": args.seed,
                }
            ],
            args.out,
        )
    elif args.format == "json":
        _emit_json(
            "simulate-singlet",
            args.seed,
            config,
            {"n": args.n, "correlation": est.value, "stderr": est.stderr, "target": target},
            args.out,
        )
    else:
        _emit_text(
            [
                ("n", args.n),
                ("seed", args.seed),
                ("correlation", est.value),
                ("stderr", est.stderr),
                ("target", target),
            ],
            args.out,
        )
    return 0


def _cmd_lhv(args) -> int:
    alpha = _parse_vector(args.alpha)
    beta = _parse_vector(args.beta)
    model = make_lhv_model(args.model)
    a_seq, b_seq, lambdas = sample_lhv(model, alpha, beta, args.n, RngStream(args.seed))
    if args.dump_lambdas:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["lambda_x", "lambda_y", "lambda_z"])
        writer.writerows(lambdas.tolist())
        Path(args.dump_lambdas).write_text(buffer.getvalue())
    est = correlation(a_seq, b_seq)
    theta = math.acos(max(-1.0, min(1.0, alpha.dot(beta))))
    closed = sign_model_correlation(theta)
    config = {
        "model": args.model,
        "alpha": alpha.as_list(),
        "beta": beta.as_list(),
        "n": args.n,
        "seed": args.seed,
    }
    if args.format == "csv":
        _emit_csv(
            ["model", "direction_alpha", "direction_beta", "n", "correlation", "stderr", "closed_form", "seed"],
            [
                {
                    "model": args.model,
                    "direction_alpha": _vector_cell(alpha),
                    "direction_beta": _vector_cell(beta),
                    "n": args.n,
                    "correlation": est.value,
                    "stderr": est.stderr,
                    "closed_form": closed,
                    "seed": args.seed,
                }
            ],
            args.out,
        )
    elif args.format == "json":
        _emit_json(
            "lhv",
            args.seed,
            config,
            {
                "model": args.model,
                "n": args.n,
                "correlation": est.value,
                "stderr": est.stderr,
                "closed_form": closed,
            },
            args.out,
        )
    else:
        _emit_text(
            [
                ("model", args.model),
                ("n", args.n),
                ("seed", args.seed),
                ("correlation", est.value),
                ("stderr", est.stderr),
                ("closed_form", closed),
            ],
            args.out,
        )
    return 0


# the config-file keys `certify-ap` reads; `experiment` also reads a, b, model
_CONFIG_KEYS = ("seed", "n", "sigma_k", "directions", "scenario")


def _load_config_file(path: str | None, keys: tuple[str, ...] = _CONFIG_KEYS) -> dict:
    if not path:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(
            f"config file has unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(keys)}"
        )
    return data


def _build_config(args, file_cfg: dict, default_scenario: str) -> ExperimentConfig:
    directions = []
    if args.directions is not None:
        parsed = json.loads(args.directions)
        if not isinstance(parsed, list):
            raise ValueError("--directions expects a JSON list of vectors")
        directions = [UnitVector3.from_iterable(v) for v in parsed]
    elif "directions" in file_cfg:
        directions = [UnitVector3.from_iterable(v) for v in file_cfg["directions"]]
    return ExperimentConfig(
        seed=args.seed if args.seed is not None else _seed(file_cfg.get("seed", 0)),
        n=args.n if args.n is not None else int(file_cfg.get("n", 100_000)),
        sigma_k=args.sigma_k
        if args.sigma_k is not None
        else float(file_cfg.get("sigma_k", 4.0)),
        directions=tuple(directions),
        scenario=str(file_cfg.get("scenario", default_scenario)),
    )


def _certificate_rows(cert, which: str) -> list[dict]:
    return [
        {
            "section": f"certificate_{which}",
            "label": "",
            "direction": _vector_cell(row.direction),
            "target": row.target,
            "estimate": row.estimate,
            "stderr": row.stderr,
            "gap": abs(row.estimate - row.target),
            "pass": row.passed,
        }
        for row in cert.rows
    ]


_REPORT_FIELDS = ["section", "label", "direction", "target", "estimate", "stderr", "gap", "pass"]


def _cmd_certify_ap(args) -> int:
    file_cfg = _load_config_file(args.config)
    if (args.axis is None) == (args.singlet_beta is None):
        raise ValueError("choose exactly one of --axis (prepared) or --singlet-beta")
    cfg = _build_config(
        args, file_cfg, "prepared-ap" if args.axis else "singlet-ap"
    )
    if not cfg.directions:
        raise ValueError("no certification directions given (flag or config file)")
    if args.axis:
        axis = _parse_vector(args.axis)
        cert = prepared_ap_experiment(axis, cfg)
    else:
        beta = _parse_vector(args.singlet_beta)
        cert = singlet_ap_experiment(beta, cfg)
    config = dict(cfg.to_dict(), mode=cfg.scenario)
    if args.format == "json":
        _emit_json("certify-ap", cfg.seed, config, {"certificate": cert.to_dict()}, args.out)
    elif args.format == "csv":
        _emit_csv(_REPORT_FIELDS, _certificate_rows(cert, "u"), args.out)
    else:
        lines = [
            f"direction={_vector_cell(row.direction)}, target={row.target:.6f}, "
            f"estimate={row.estimate:.6f}, stderr={row.stderr:.6f}, "
            f"pass={'yes' if row.passed else 'no'}"
            for row in cert.rows
        ]
        lines.append(f"verdict={'PASS' if cert.passed else 'FAIL'}")
        _emit("\n".join(lines), args.out)
    return 0 if cert.passed else 1


def _cmd_experiment(args) -> int:
    file_cfg = _load_config_file(args.config, (*_CONFIG_KEYS, "a", "b", "model"))
    a_text = args.a if args.a is not None else json.dumps(file_cfg.get("a"))
    b_text = args.b if args.b is not None else json.dumps(file_cfg.get("b"))
    if a_text == "null" or b_text == "null":
        raise ValueError("experiment needs --a and --b (flags or config file)")
    a, b = _parse_vector(a_text), _parse_vector(b_text)
    model_name = args.model if args.model is not None else file_cfg.get("model", "sign-circle")
    cfg = _build_config(args, file_cfg, "no-apbp")
    result = no_apbp_experiment(a, b, make_lhv_model(model_name), cfg)

    config = dict(cfg.to_dict(), a=a.as_list(), b=b.as_list(), model=model_name)
    report = result.inequality
    summary = {
        "scenario": cfg.scenario,
        "model": model_name,
        "a": a.as_list(),
        "b": b.as_list(),
        "witness_alpha": report.alpha.as_list(),
        "case": report.case_label,
        "assignment": report.assignment,
        "target_lhs": report.target_lhs,
        "empirical_lhs": report.empirical_lhs,
        "gaps": list(report.gaps),
        "verdict": report.verdict,
        "certificate_u_pass": result.certificate_u.passed,
        "certificate_v_pass": result.certificate_v.passed,
        "failing_margin": result.failing_margin,
        "margin_floor": result.margin_floor,
        "margin_ok": result.margin_ok,
        "contradiction_closed": result.contradiction_closed,
    }
    if args.summary:
        _emit_json("experiment", cfg.seed, config, summary, args.summary)

    if args.format == "json":
        _emit_json(
            "experiment", cfg.seed, config, dict(summary, detail=result.to_dict()), args.out
        )
    elif args.format == "csv":
        rows = [
            {
                "section": "triangle",
                "label": leg.label,
                "direction": "",
                "target": leg.target,
                "estimate": leg.estimate,
                "stderr": leg.stderr,
                "gap": leg.gap,
                "pass": "",
            }
            for leg in result.triangle
        ]
        rows += _certificate_rows(result.certificate_u, "u")
        rows += _certificate_rows(result.certificate_v, "v")
        _emit_csv(_REPORT_FIELDS, rows, args.out)
    else:
        passed_u = "yes" if result.certificate_u.passed else "no"
        passed_v = "yes" if result.certificate_v.passed else "no"
        _emit(
            "\n".join(
                [
                    f"case={report.case_label}, assignment={report.assignment}, "
                    f"target_lhs={report.target_lhs:.6f}, empirical_lhs={report.empirical_lhs:.6f}",
                    f"gaps={', '.join(f'{g:.6f}' for g in report.gaps)}",
                    f"certificate_u_pass={passed_u}, certificate_v_pass={passed_v}",
                    f"failing_margin={result.failing_margin:.6f}, "
                    f"margin_floor={result.margin_floor:.6f}, "
                    f"contradiction_closed={'yes' if result.contradiction_closed else 'no'}",
                ]
            ),
            args.out,
        )
    return 0 if (result.certificate_u.passed and result.certificate_v.passed) else 1


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolebell",
        description="Samplers, witnesses, and certification experiments for the "
        "three-sequence correlation bound.",
    )
    parser.add_argument("--version", action="version", version=f"boolebell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlate", help="correlation of two sign sequences")
    p.add_argument("--f", required=True, help="sign sequence, e.g. '+--+' (or @file)")
    p.add_argument("--g", required=True, help="sign sequence (or @file)")
    p.add_argument("--seed", type=_seed, default=0)
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("check-boole", help="evaluate the three-sequence bound")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_check_boole)

    p = sub.add_parser("bruteforce", help="exhaustive maximum of the bound at length n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_bruteforce)

    p = sub.add_parser("witness", help="violation witness directions and values")
    p.add_argument("--a", help="first axis as JSON vector")
    p.add_argument("--b", help="second axis as JSON vector")
    p.add_argument("--optimal", action="store_true", help="numerically maximized witness")
    p.add_argument("--orthogonal-to", choices=("a", "b"), default="a")
    p.add_argument("--sweep", help="angle sweep START:STOP:STEP in degrees")
    p.add_argument("--plot", help="prefix for two-column plot data files")
    p.add_argument("--seed", type=_seed, default=0)
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("simulate-prepared", help="measure an axis-prepared stream")
    p.add_argument("--axis", required=True, help="preparation axis as JSON vector")
    p.add_argument("--alpha", required=True, help="measurement direction as JSON vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dump-u", help="write preparation signs to this path")
    p.add_argument("--dump-x", help="write measured signs to this path")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_simulate_prepared)

    p = sub.add_parser("simulate-singlet", help="measure singlet pairs")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dump-a", help="write near-wing signs to this path")
    p.add_argument("--dump-b", help="write far-wing signs to this path")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_simulate_singlet)

    p = sub.add_parser("lhv", help="sample a local deterministic model")
    p.add_argument("--model", choices=MODEL_NAMES, default="sign-circle")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dump-lambdas", help="write hidden draws as CSV to this path")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_lhv)

    p = sub.add_parser("certify-ap", help="certify axis-prepared behavior")
    p.add_argument("--axis", help="prepared mode: the true preparation axis")
    p.add_argument("--singlet-beta", help="singlet mode: far-wing direction")
    p.add_argument("--directions", help="JSON list of measurement directions")
    p.add_argument("--config", help="JSON config file mirroring the experiment config")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--sigma-k", type=float)
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_certify_ap)

    p = sub.add_parser(
        "experiment", help="two-axis certification of a local model (the contradiction demo)"
    )
    p.add_argument("--a", help="first claimed axis")
    p.add_argument("--b", help="second claimed axis")
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--directions", help="JSON list of extra certification directions")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=_seed)
    p.add_argument("--sigma-k", type=float)
    p.add_argument("--summary", help="also write a JSON summary to this path")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_experiment)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the whole-sequence commands hold all n outcomes in memory
        print(f"error: out of memory ({exc or 'allocation failed'}); try a smaller --n",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

"""The handlers of the five CLI commands that sample, and the helpers only they use.

:mod:`boolebell.cli` registers ``simulate-prepared``, ``simulate-singlet``,
``lhv``, ``certify-ap`` and ``experiment``, and imports this module only when
one of them runs, so the commands that need no numpy never compile it.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

from .cli import Report, _cell, _json, _parse_vector, _read_text, _render, _write_csv
from .geometry import angle_between, clamp_unit_dot

if TYPE_CHECKING:
    from .experiments import ExperimentConfig

# rows a dump builds and writes at a time: at n = 1e6, 16,384 peak at 72.6 MiB (sign-sphere) and
# 48.9 (sign-circle), 65,536 at 80.7 and 56.9, at no cost in wall time (medians of 12, 2-vCPU VM)
_DUMP_ROWS = 16_384


def _dumps(*given) -> tuple:
    """The output file of each (flag, path, sign sequence) whose flag was given."""
    return tuple((flag, path, s.to_text() + "\n") for flag, path, s in given if path is not None)


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


HANDLERS = {
    "simulate-prepared": _cmd_simulate_prepared,
    "simulate-singlet": _cmd_simulate_singlet,
    "lhv": _cmd_lhv,
    "certify-ap": _cmd_certify_ap,
    "experiment": _cmd_experiment,
}

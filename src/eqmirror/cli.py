"""Command line front end: run the series pipeline and the exact checks.

Commands compute curve-class invariants (gw, an, trivalent) or verify
closed forms (verify-*, pf-check, genus1-fit, a2-genus1).  Reports are
deterministic: every number is an exact rational rendered as num/den and
keys are sorted; timing goes to stderr only.

Each command takes only the flags it reads (``_COMMANDS``); any other flag
is a usage error.  A flag value is a string that goes through the same
integer and rational parsing as a config-file value, and a flag overrides
the config key of the same name (``--fiber-degree`` is ``fiber_degree``).
A config file may hold keys that the command does not read, so one file
can serve several commands.

Exit codes: 0 all requested checks pass, 1 a verification mismatch,
2 unusable configuration, 3 the factorization cannot be made exact (for
example, normalizing coefficients climb above lambda^0).
"""

import argparse
import ast
import json
import os
import sys
import time

from .closed_forms import (
    ClosedFormError,
    a2_genus1_check,
    bundle_mirror_check,
    ftt_identity_check,
    genus1_fit_check,
    genus1_reference_check,
    pf_check,
    tree_bracket_check,
    yukawa_check,
    GENUS1_REFERENCE,
)
from .exact_core import AlgebraError, rat, rat_str
from .givental import GeometryError, GeometrySpec, geometry
from .pipeline import (
    BirkhoffError,
    PipelineError,
    factored_consistency_check,
    fibration_correspondence_check,
    gw_table,
)
from .series import SeriesError


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def parse_config_value(text):
    """Parse a config value: Python-style literals for structure, else str."""
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def load_config(path):
    """Flat key = value file; '#' starts a comment; literals for matrices."""
    cfg = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        "%s:%d: expected key = value" % (path, lineno)
                    )
                key, value = line.split("=", 1)
                cfg[key.strip()] = parse_config_value(value)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    return cfg


def parse_degree(value, nvars=None):
    """Degree box from a flag string such as "3,3" or a config literal,
    which reads "3,3" as the tuple (3, 3)."""
    items = value if isinstance(value, (tuple, list)) else str(value).split(",")
    parts = tuple(_degree(p) for p in items)
    if nvars is not None:
        if len(parts) == 1:
            parts = parts * nvars
        elif len(parts) != nvars:
            raise ConfigError(
                "degree box has %d entries for %d variables" % (len(parts), nvars)
            )
    return parts


def geometry_from_config(cfg):
    """Builtin family lookup, or an explicit charge-matrix geometry."""
    if "mori" in cfg:
        try:
            weights = []
            for w in cfg.get("weights", ()):
                if not w:
                    weights.append(None)
                elif isinstance(w, (tuple, list)) and len(w) == 2:
                    weights.append((str(w[0]), _config_int(w[1], "weight sign")))
                else:
                    raise ConfigError("weights entries are null or (name, sign)")
            generators = tuple(cfg.get("generators", ()))
            relations = []
            for rel in cfg.get("relations", ()):
                if not isinstance(rel, dict):
                    raise ConfigError("relations are {exponent-tuple: coefficient}")
                relation = {}
                for exps, v in rel.items():
                    exps = tuple(_config_int(e, "relation exponent") for e in exps)
                    if len(exps) != len(generators) or min(exps, default=0) < 0:
                        raise ConfigError(
                            "relation exponent tuple %r needs one entry >= 0 for each of "
                            "the %d generators" % (exps, len(generators))
                        )
                    relation[exps] = _parse_rat(v, "relation coefficient")
                relations.append(relation)
            return GeometrySpec(
                name=str(cfg.get("name", "custom")),
                mori=tuple(
                    tuple(_config_int(c, "mori entry") for c in row) for row in cfg["mori"]
                ),
                weights=tuple(weights),
                generators=generators,
                relations=tuple(relations),
                lambda_names=tuple(cfg.get("lambda_names", ())),
                infinity_weights=tuple(cfg.get("infinity_weights", ())),
                family=str(cfg.get("family", "custom")),
                parameter=cfg.get("parameter"),
                action=cfg.get("action"),
            )
        except (TypeError, KeyError, AlgebraError) as exc:
            raise ConfigError("bad explicit geometry: %s" % exc)
    family = cfg.get("family") or cfg.get("geometry")
    if not family:
        raise ConfigError("a geometry needs a family name or a charge matrix")
    parameter = cfg.get("parameter")
    if parameter is None:
        parameter = cfg.get("k") if cfg.get("k") is not None else cfg.get("n")
    if parameter is not None:
        parameter = _config_int(parameter, "parameter")
    return geometry(str(family), parameter, cfg.get("action"))


# ---------------------------------------------------------------------------
# command handlers: each returns (report dict, all-passed flag)
# ---------------------------------------------------------------------------


def _report_from_comparisons(reports):
    out = {}
    for rep in reports:
        out[rep.label] = {
            "verdict": "pass" if rep.passed else "fail",
            "details": {str(k): str(v) for k, v in rep.details},
        }
    return out, all(rep.passed for rep in reports)


def cmd_gw(cfg):
    geom = geometry_from_config(cfg)
    box = parse_degree(cfg.get("degree", 3), len(geom.mori))
    table = gw_table(geom, box)
    report = {
        "geometry": geom.name,
        "degree": list(box),
        "invariants": table.render(),
    }
    return report, True


def cmd_verify_genus0(cfg):
    k = _need_k(cfg)
    degree = _degree(cfg.get("degree", 6))
    reports = [
        bundle_mirror_check(k, degree),
        yukawa_check(k, degree),
        ftt_identity_check(k, degree),
    ]
    return _report_from_comparisons(reports)


def cmd_verify_genus1(cfg):
    k = _need_k(cfg)
    degree = _degree(cfg.get("degree", 5))
    reports = []
    if k in GENUS1_REFERENCE:
        reports.append(genus1_reference_check(k, min(degree, 5)))
    reports.append(genus1_fit_check(k, degree))
    return _report_from_comparisons(reports)


def cmd_verify_factored(cfg):
    k = _need_k(cfg)
    action = str(cfg.get("action", "antidiagonal"))
    box = parse_degree(cfg.get("degree", 3), 1)
    rep = factored_consistency_check(k, action, box)
    return _report_from_comparisons([rep])


def cmd_verify_fibration(cfg):
    degree = _degree(cfg.get("degree", 4))
    fiber = _degree(cfg.get("fiber_degree", 2), "fiber_degree")
    return _report_from_comparisons([fibration_correspondence_check(degree, fiber)])


def cmd_pf_check(cfg):
    k = _need_k(cfg)
    degree = _degree(cfg.get("degree", 6))
    return _report_from_comparisons([pf_check(k, degree)])


def cmd_genus1_fit(cfg):
    k = _need_k(cfg)
    degree = _degree(cfg.get("degree", 6))
    # the fitted exponents only; a mismatch with the closed form is for
    # verify-genus1 to report
    report = dict(genus1_fit_check(k, degree).details)
    report["k"] = k
    return report, True


def cmd_an(cfg):
    n = cfg.get("n")
    if n is None:
        raise ConfigError("the chain command needs --n")
    n = _config_int(n, "n")
    geom = geometry("a_n", n)
    box = parse_degree(cfg.get("degree", 3), n)
    table = gw_table(geom, box)
    report = {"geometry": geom.name, "invariants": table.render()}
    if n != 2:
        return report, True
    extra, passed = _report_from_comparisons([tree_bracket_check(geom, box)])
    report.update(extra)
    return report, passed


def cmd_trivalent(cfg):
    choice = str(cfg.get("action", "both"))
    actions = ("diagonal", "antidiagonal") if choice == "both" else (choice,)
    box = parse_degree(cfg.get("degree", 2), 3)
    reports = [tree_bracket_check(geometry("trivalent", None, a), box) for a in actions]
    return _report_from_comparisons(reports)


def cmd_a2_genus1(cfg):
    box = parse_degree(cfg.get("degree", 3), 2)
    kwargs = {}
    if cfg.get("delta_exponent") is not None:
        kwargs["delta_exponent"] = _parse_rat(cfg["delta_exponent"], "delta_exponent")
    if cfg.get("jacobian_exponent") is not None:
        kwargs["jacobian_exponent"] = _parse_rat(cfg["jacobian_exponent"], "jacobian_exponent")
    rep = a2_genus1_check(box, **kwargs)
    report = {
        "verdict": "pass" if rep.passed else "fail",
        "given delta exponent": rat_str(rep.given_delta_exponent),
        "given jacobian exponent": rat_str(rep.given_jacobian_exponent),
        "delta jacobian relation": "Delta * det(dt/dlogq)^4 == 1"
        if rep.jacobian_relation
        else "not proportional",
        "measured target exponent": rat_str(rep.target_exponent)
        if rep.target_exponent is not None
        else "not proportional to log Delta",
        "delta exponent closing the identity": rat_str(rep.delta_exponent)
        if rep.delta_exponent is not None
        else "none",
    }
    return report, rep.passed


def _need_k(cfg):
    k = cfg.get("k")
    if k is None:
        raise ConfigError("this command needs --k")
    return _config_int(k, "k")


def _config_int(value, what):
    """Every integer read from flags or a config file goes through here, so
    bad input raises ConfigError (exit 2) instead of a bare ValueError."""
    try:
        return int(str(value))
    except ValueError:
        raise ConfigError("%s must be an integer, got %r" % (what, value)) from None


def _degree(value, what="degree"):
    """Every degree read, scalar or box entry, is an integer >= 1."""
    degree = _config_int(value, what)
    if degree < 1:
        raise ConfigError("%s must be >= 1, got %d" % (what, degree))
    return degree


def _parse_rat(value, what="value"):
    num, slash, den = str(value).partition("/")
    den = _config_int(den, what + " denominator") if slash else 1
    if den == 0:
        raise ConfigError("%s has a zero denominator: %r" % (what, value))
    return rat(_config_int(num, what + " numerator"), den)


# config key -> help text; the flag is --key with "_" written as "-"
_FLAGS = {
    "geometry": "builtin family name",
    "k": "bundle parameter",
    "n": "chain length",
    "action": "torus action preset (antidiagonal, diagonal, generic, both)",
    "degree": "degree box, integer or comma list",
    "fiber_degree": "fiber degree of the projective bundle",
    "delta_exponent": "discriminant exponent, a rational such as -7/48",
    "jacobian_exponent": "jacobian exponent, a rational such as 1/2",
}

# command -> (handler, the config keys it reads that a flag may set)
_COMMANDS = {
    "gw": (cmd_gw, ("geometry", "k", "n", "action", "degree")),
    "verify-genus0": (cmd_verify_genus0, ("k", "degree")),
    "verify-genus1": (cmd_verify_genus1, ("k", "degree")),
    "verify-factored": (cmd_verify_factored, ("k", "action", "degree")),
    "verify-fibration": (cmd_verify_fibration, ("degree", "fiber_degree")),
    "pf-check": (cmd_pf_check, ("k", "degree")),
    "genus1-fit": (cmd_genus1_fit, ("k", "degree")),
    "an": (cmd_an, ("n", "degree")),
    "trivalent": (cmd_trivalent, ("action", "degree")),
    "a2-genus1": (cmd_a2_genus1, ("degree", "delta_exponent", "jacobian_exponent")),
}


# ---------------------------------------------------------------------------
# rendering and entry point
# ---------------------------------------------------------------------------


def render_text(report, indent=0):
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append("%s%s:" % (pad, key))
            lines.extend(render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append("%s%s: %s" % (pad, key, " ".join(str(v) for v in value)))
        else:
            lines.append("%s%s: %s" % (pad, key, value))
    return lines


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eqmirror",
        description="exact mirror symmetry computations for local curve geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        p = sub.add_parser(name)
        for key in _COMMANDS[name][1]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_FLAGS[key])
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(usage_error=p.error)
    return parser


def main(argv=None):
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # the command's own usage line lists the flags it does take
        args.usage_error("unrecognized arguments: %s" % " ".join(unread))
    handler, keys = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config) if args.config else {}
        for key in keys:
            value = getattr(args, key)
            if value is not None:
                cfg[key] = value
        started = time.monotonic()
        report, passed = handler(cfg)
    except BirkhoffError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ConfigError, GeometryError, ClosedFormError, PipelineError, SeriesError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started

    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(render_text(report))
    print(text)
    print("elapsed: %.2fs" % elapsed, file=sys.stderr)

    if args.out:
        out = args.out
        base = os.environ.get("EQMIRROR_OUT_DIR")
        if base and not os.path.isabs(out):
            out = os.path.join(base, out)
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print("error: cannot write %s: %s" % (out, exc), file=sys.stderr)
            return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

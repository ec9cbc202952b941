"""Command line entry point.

Each subcommand accepts only the options its handler reads (``COMMANDS``),
and its report's ``config`` echoes exactly those, with the effective
budgets where it takes ``--budget``; any other flag, or a ``--mode`` the
command does not run, is a usage error.

Exit codes: 0 success, 2 infeasible (the value is infinite), 3 budget
exceeded, 4 validation, parse, usage or file system failure (one line on
standard error).  The environment variable
SYMTC_BUDGET overrides the default caps.  All output is canonical JSON;
timing fields live under a separate key so reports are otherwise
byte-reproducible.
"""

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

from . import complexity
from .actions import orbit_partition, symmetric_group
from .complexes import base_of
from .constructions import (
    barycentric_subdivide,
    build_tower,
    check_depth,
    ordered_power,
    poset_tower,
    projection_pi,
    projection_rho,
    totalize,
)
from .errors import BudgetExceeded, ParseError, SymtcError, ValidationError
from .io import (
    canonical_json,
    complex_to_doc,
    load_json,
    parse_complex,
    parse_poset,
    poset_to_doc,
    save_json,
)
from .posets import face_poset, order_complex
from .search import plain_contiguous, sym_comb_homotopic, sym_contiguous
from .search import plain_comb_homotopic
from .verify import validate
from .witnesses import certificate_from_doc

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_INVALID = 4


# report keys that say where the output goes, or only how to run
_NOT_ECHOED = {"output", "cert_dir", "budget", "seedless", "verbose"}


class RunConfig(argparse.Namespace):
    """The parsed options of one command: only those the command reads."""

    def effective_budget(self):
        """--budget wins; otherwise SYMTC_BUDGET; otherwise the defaults.
        A budget below 1 is invalid input."""
        if self.budget is not None:
            budget, source = self.budget, "--budget"
        else:
            env = os.environ.get("SYMTC_BUDGET")
            if not env:
                return None
            try:
                budget, source = int(env), "SYMTC_BUDGET"
            except ValueError:
                raise ValidationError(
                    f"SYMTC_BUDGET must be an integer, not {env!r}"
                ) from None
        if budget < 1:
            raise ValidationError(f"{source} must be at least 1, not {budget}")
        return budget

    def budgets(self):
        return complexity.budgets_with(self.effective_budget())

    def echo(self):
        """The report's ``config``: the command, its input and the options
        it reads, with the effective budgets where it takes --budget."""
        out = {k: v for k, v in vars(self).items() if k not in _NOT_ECHOED}
        if "budget" in vars(self):
            out["budgets"] = self.budgets()
        return out


@dataclass
class RunReport:
    config: dict
    result: object = None
    certificates: list = field(default_factory=list)
    exhaustion: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_doc(self):
        return {
            "config": self.config,
            "result": self.result,
            "certificates": self.certificates,
            "exhaustion": self.exhaustion,
            "timings": self.timings,
        }


def _emit(cfg, report):
    text = canonical_json(report.to_doc())
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_cert(cfg, name, cert):
    directory = cfg.cert_dir or "."
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    save_json(path, cert.to_doc())
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_sd(cfg):
    check_depth(cfg.r)
    K = totalize(parse_complex(cfg.input))
    for _ in range(cfg.r):
        K = barycentric_subdivide(K)
    report = RunReport(cfg.echo(), result=complex_to_doc(K))
    _emit(cfg, report)
    return EXIT_OK


def cmd_power(cfg):
    K = totalize(parse_complex(cfg.input))
    power = ordered_power(K, cfg.n, budget=cfg.budgets()["simplices"])
    report = RunReport(cfg.echo(), result=complex_to_doc(power.result))
    _emit(cfg, report)
    return EXIT_OK


def cmd_order_complex(cfg):
    P = parse_poset(cfg.input)
    report = RunReport(cfg.echo(), result=complex_to_doc(order_complex(P)))
    _emit(cfg, report)
    return EXIT_OK


def cmd_face_poset(cfg):
    K = parse_complex(cfg.input)
    report = RunReport(cfg.echo(), result=poset_to_doc(face_poset(base_of(K))))
    _emit(cfg, report)
    return EXIT_OK


def cmd_orbits(cfg):
    doc = load_json(cfg.input)
    group = symmetric_group(cfg.n)
    if isinstance(doc, dict) and "elements" in doc:
        P = parse_poset(cfg.input, doc)
        tower = poset_tower(P, cfg.n, cfg.r, budget=cfg.budgets()["simplices"])
        names = tower.top().elements
    else:
        K = parse_complex(cfg.input, doc)
        tower = build_tower(K, cfg.n, cfg.r, budget=cfg.budgets()["simplices"])
        names = tower.top().vertices
    parts = orbit_partition(group, names, cfg.r)
    report = RunReport(cfg.echo(), result=parts)
    _emit(cfg, report)
    return EXIT_OK


# command -> (reader, tower, projection, symmetric and plain decider,
# certificate file); the contiguity deciders also take the ordered target
_DECIDERS = {
    "sym-contiguous": (parse_complex, build_tower, projection_pi,
                       sym_contiguous, plain_contiguous,
                       "contiguity-chain.cert.json"),
    "homotopic": (parse_poset, poset_tower, projection_rho,
                  sym_comb_homotopic, plain_comb_homotopic,
                  "homotopy.cert.json"),
}


def cmd_decide(cfg):
    read, make, project, sym, plain, cert = _DECIDERS[cfg.command]
    instance = read(cfg.input)
    budgets = cfg.budgets()
    tower = make(instance, cfg.n, cfg.r, budget=budgets["simplices"])
    maps = [project(tower, j) for j in range(1, cfg.n + 1)]
    extra = {"target_ordered": tower.factor} if read is parse_complex else {}
    args = (maps,) if cfg.plain else (maps, cfg.n)
    res = (plain if cfg.plain else sym)(
        *args, depth=cfg.r, mode=cfg.mode, budget=budgets["nodes"], **extra)
    report = RunReport(cfg.echo(), result={"status": res.status},
                       exhaustion=res.record)
    if res.yes:
        res.witness.projection_endpoints = True
        report.certificates.append(_write_cert(cfg, cert, res.witness))
    _emit(cfg, report)
    return EXIT_OK if res.status != "no" else EXIT_INFEASIBLE


def cmd_check_certificate(cfg):
    doc = load_json(cfg.input)
    cert = certificate_from_doc(doc)
    rep = validate(cert)
    report = RunReport(
        cfg.echo(),
        result={"valid": rep.ok, "failures": rep.failures},
    )
    _emit(cfg, report)
    return EXIT_OK if rep.ok else EXIT_INVALID


def _run_complexity(cfg, fn, instance, kwargs):
    t0 = time.monotonic()
    res = fn(instance, **kwargs)
    report = RunReport(cfg.echo(), result=res.to_doc())
    for i, piece in enumerate(res.cover):
        path = _write_cert(
            cfg, f"{res.invariant}-piece{i}.cert.json", piece.witness
        )
        report.certificates.append(path)
    report.exhaustion = {
        k: v for k, v in res.stats.items() if k != "pieces_tested"
    }
    report.timings = {"wall_seconds": round(time.monotonic() - t0, 6)}
    _emit(cfg, report)
    return EXIT_INFEASIBLE if res.kind == "infinite" else EXIT_OK


def cmd_sc(cfg):
    K = parse_complex(cfg.input)
    fn = complexity.sc_plain if cfg.plain else complexity.sc_sigma
    return _run_complexity(
        cfg, fn, K,
        {"n": cfg.n, "r": cfg.r, "mode": cfg.mode, "budget": cfg.effective_budget()},
    )


def cmd_cc(cfg):
    P = parse_poset(cfg.input)
    fn = complexity.cc_plain if cfg.plain else complexity.cc_sigma
    return _run_complexity(
        cfg, fn, P,
        {"n": cfg.n, "r": cfg.r, "mode": cfg.mode, "budget": cfg.effective_budget()},
    )


def cmd_tc_finite(cfg):
    P = parse_poset(cfg.input)
    t0 = time.monotonic()
    by_homotopy = complexity.tc_sigma_finite(P, n=cfg.n, budget=cfg.effective_budget())
    by_sections = complexity.tc_sigma_finite_sections(
        P, n=cfg.n, budget=cfg.effective_budget()
    )
    agree = by_homotopy.value == by_sections.value
    report = RunReport(
        cfg.echo(),
        result={
            "homotopy_route": by_homotopy.to_doc(),
            "section_route": by_sections.to_doc(),
            "routes_agree": agree,
        },
    )
    report.timings = {"wall_seconds": round(time.monotonic() - t0, 6)}
    _emit(cfg, report)
    if not agree:
        return EXIT_INVALID
    return EXIT_INFEASIBLE if by_homotopy.kind == "infinite" else EXIT_OK


def cmd_stabilize(cfg):
    if cfg.invariant in ("sc-sigma", "sc-plain"):
        instance = parse_complex(cfg.input)
    else:
        instance = parse_poset(cfg.input)
    out = complexity.stabilize_over_r(
        cfg.invariant, instance, n=cfg.n, max_r=cfg.max_r, mode=cfg.mode,
        budget=cfg.effective_budget(),
    )
    rows = [r.to_doc() for r in out["rows"]]
    running = out["min"]
    report = RunReport(
        cfg.echo(),
        result={
            "per_r": rows,
            "min": "infinity" if running == complexity.INFINITY else running,
        },
    )
    _emit(cfg, report)
    return EXIT_INFEASIBLE if running == complexity.INFINITY else EXIT_OK


# option -> (flags, argparse keywords)
OPTIONS = {
    "cert_dir": (["--cert-dir"], {"help": "directory for certificate files"}),
    "n": (["--n"], {"type": int, "default": 2}),
    "r": (["--r"], {"type": int, "default": 0}),
    # `sd` subdivides once unless --iterations says otherwise
    "iterations": (["--r", "--iterations"],
                   {"dest": "r", "type": int, "default": 1}),
    "max_r": (["--max-r"], {"type": int, "default": 1}),
    "search_mode": (["--mode"], {"choices": ["exact", "auto", "bounded"],
                                 "default": "exact"}),
    "cover_mode": (["--mode"], {"choices": ["exact", "upper"],
                                "default": "exact"}),
    "invariant": (["--invariant"], {
        "required": True, "choices": sorted(complexity.STABILIZE_INVARIANTS),
    }),
    "plain": (["--plain"], {"action": "store_true",
                            "help": "drop the symmetry constraints"}),
    "budget": (["--budget"], {"type": int}),
}

_DECIDE = ["cert_dir", "n", "r", "search_mode", "plain", "budget"]
_COVER = ["cert_dir", "n", "r", "cover_mode", "plain", "budget"]

# command -> (handler, the options it reads)
COMMANDS = {
    "sd": (cmd_sd, ["iterations"]),
    "power": (cmd_power, ["n", "budget"]),
    "order-complex": (cmd_order_complex, []),
    "face-poset": (cmd_face_poset, []),
    "orbits": (cmd_orbits, ["n", "r", "budget"]),
    "sym-contiguous": (cmd_decide, _DECIDE),
    "homotopic": (cmd_decide, _DECIDE),
    "check-certificate": (cmd_check_certificate, []),
    "sc": (cmd_sc, _COVER),
    "cc": (cmd_cc, _COVER),
    "tc-finite": (cmd_tc_finite, ["n", "budget"]),
    "stabilize": (cmd_stabilize,
                  ["n", "max_r", "cover_mode", "invariant", "budget"]),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4 with one line; its
    subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="symtc",
        description=(
            "Symmetric simplicial and combinatorial complexity of finite "
            "complexes and posets, with machine-checkable certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input JSON document")
        p.add_argument("--output", help="write the report here (default stdout)")
        for option in options:
            flags, keywords = OPTIONS[option]
            p.add_argument(*flags, **keywords)
        p.add_argument("--seedless", action="store_true",
                       help="accepted for compatibility; search order is "
                            "already deterministic")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv, namespace=RunConfig())
    try:
        return COMMANDS[cfg.command][0](cfg)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, ValidationError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SymtcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: gen | run | oracle | verify | pp | report."""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Dict, Optional, Sequence

from .errors import ConfigError, InstanceError, LeaselabError, LedgerError
from .generators import GENERATOR_KINDS, gen_instance
from .harness import (
    ALGORITHMS,
    VARIANTS,
    ExperimentConfig,
    csv_rows,
    csv_text,
    format_summary_table,
    read_records_csv,
    records_to_csv,
    report,
    run_trial,
    steps_to_jsonl,
    summary_to_csv,
)
from .graphs import build_graph
from .instances import Instance, PurchaseLedger, make_instance
from .leases import LeaseCatalog, Triplet, as_cost
from .oracle import offline_opt, offline_opt_ds
from .permits import pp_offline_opt


def _parse_params(pairs: Sequence[str]) -> Dict:
    params: Dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"bad --params entry {pair!r}, expected key=value")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: arrays nested too deep
            raise InstanceError(f"{path} is not JSON: {exc}") from None
    return Instance.from_json(data)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


LEDGER_COLUMNS = ["node", "lease", "start", "step", "cost"]


def _ledger_csv(ledger: PurchaseLedger) -> str:
    return csv_text(LEDGER_COLUMNS, ledger.rows())


def _read_ledger_csv(path: str, inst: Instance) -> PurchaseLedger:
    """Each row holds integers and an exact cost, names a node of the graph and a
    lease in 1..|L| starting on that lease's slot grid, pays that lease's cost, has a
    start and step that are not negative, and differs from every earlier row."""
    catalog = inst.catalog
    ledger = PurchaseLedger()
    for where, row in csv_rows(path, LEDGER_COLUMNS, LedgerError):
        try:
            tr = Triplet(int(row["node"]), int(row["lease"]), int(row["start"]))
            step, cost = int(row["step"]), as_cost(row["cost"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise LedgerError(
                f"{where}: want integer node, lease, start, step and a cost ({exc})"
            ) from None
        if not 0 <= tr.node < inst.graph.node_count:
            raise LedgerError(f"{where}: node {tr.node} is not in the graph")
        if tr.start < 0 or step < 0:
            raise LedgerError(f"{where}: start {tr.start} or step {step} is negative")
        if not 1 <= tr.lease <= len(catalog) or tr.start % catalog.duration(tr.lease):
            raise LedgerError(
                f"{where}: lease {tr.lease} from {tr.start} is "
                f"not an aligned slot of a lease type in 1..{len(catalog)}"
            )
        # only after the range check: catalog.cost(0) would read the last lease's cost
        if cost != (lease_cost := catalog.cost(tr.lease)):
            raise LedgerError(f"{where}: cost {cost} is not lease {tr.lease}'s cost {lease_cost}")
        if tr in ledger:
            raise LedgerError(f"{where}: repeats the purchase of {tr}")
        ledger.add(tr, step=step, cost=cost)
    return ledger


def cmd_gen(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    rng = random.Random(f"{args.seed}:inst")
    inst = gen_instance(args.kind, params, rng)
    _write(json.dumps(inst.to_json(), indent=2) + "\n", args.out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    # --params belongs to the generator, so --params without --kind names one too
    cfg = ExperimentConfig(
        algorithm=args.algorithm,
        trials=args.trials,
        base_seed=args.seed,
        oracle=args.oracle,
        instance=_load_instance(args.instance) if args.instance else None,
        generator=(args.kind, _parse_params(args.params)) if args.kind or args.params else None,
        instance_id=(
            args.instance.rsplit("/", 1)[-1].removesuffix(".json") if args.instance else args.kind
        ),
    )
    record, first = run_trial(cfg, 0)  # trial 0's run also feeds the artifacts below
    records = [record] + [run_trial(cfg, index)[0] for index in range(1, cfg.trials)]
    _write(records_to_csv(records, timing=args.timing), args.out)
    osfl = getattr(first.state, "osfl", None)  # OCDSL's edge leasing, None without Phase 2
    if args.steps_out:
        text = steps_to_jsonl(first.steps)
        if hasattr(first.state, "totals"):  # the primal-dual leaser's primal and dual sums
            primal, dual = first.state.totals()
            text += json.dumps({"primal": str(primal), "dual": str(dual)}) + "\n"
        _write(text, args.steps_out)
    if args.ledger_out:
        _write(_ledger_csv(first.ledger), args.ledger_out)
    if args.edge_ledger_out:
        rows = [
            (*edge, lease, start, step, osfl.catalog.cost(lease))
            for (edge, lease, start), step in (osfl.edge_ledger().items() if osfl is not None else ())
        ]
        _write(csv_text(["u", "v", "lease", "start", "step", "cost"], rows), args.edge_ledger_out)
    if args.dump_tree and osfl is not None:
        sys.stdout.write(osfl.hst.format_tree() + "\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    solve = offline_opt if args.mode == "cds" else offline_opt_ds
    cost, ledger = solve(inst)
    sys.stdout.write(f"optimal cost: {cost}\n")
    _write(_ledger_csv(ledger), args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    check, _ = VARIANTS[args.mode]
    ok = check(inst, _read_ledger_csv(args.ledger, inst))
    sys.stdout.write("FEASIBLE\n" if ok else "INFEASIBLE\n")
    return 0 if ok else 1


def cmd_pp(args: argparse.Namespace) -> int:
    try:
        rainy = sorted({int(x) for x in args.rainy.split(",") if x != ""})
        pairs = [
            (int(duration), as_cost(cost))
            for duration, cost in (chunk.split(":") for chunk in args.leases.split(","))
        ]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"want --rainy day,day,... and --leases duration:cost,... of numbers ({exc})"
        ) from None
    inst = make_instance(build_graph(1, []), LeaseCatalog.from_pairs(pairs), [(t, [0]) for t in rainy])
    _, run = run_trial(ExperimentConfig("pp", instance=inst), 0)
    opt = pp_offline_opt(inst.times, inst.catalog, args.horizon)
    rows = [
        ("purchase", t, lease, start, cost_paid, "", "")
        for _, lease, start, t, cost_paid in run.ledger.rows()
    ]
    rows.append(("summary", "", "", "", run.cost, opt, repr(float(run.cost / opt))))
    _write(csv_text(["row", "t", "lease", "start", "cost", "opt", "ratio"], rows), args.out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = read_records_csv(args.records)
    rows = report(records)
    sys.stdout.write(format_summary_table(rows) + "\n")
    if args.out:
        _write(summary_to_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leaselab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p_gen.add_argument("--params", nargs="*", default=[], metavar="key=value")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run an online algorithm over trials")
    p_run.add_argument("--instance", default=None, help="instance JSON file")
    p_run.add_argument("--kind", choices=GENERATOR_KINDS, default=None)
    p_run.add_argument("--params", nargs="*", default=[], metavar="key=value")
    p_run.add_argument("--algorithm", choices=ALGORITHMS, default="ocdsl")
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--oracle", action="store_true")
    p_run.add_argument("--timing", action="store_true", help="include wall times (breaks byte determinism)")
    p_run.add_argument("--out", default=None, help="records CSV")
    p_run.add_argument("--steps-out", default=None, help="per-step JSON lines (trial 0)")
    p_run.add_argument("--ledger-out", default=None, help="node ledger CSV (trial 0)")
    p_run.add_argument("--edge-ledger-out", default=None, help="leased edge CSV (trial 0)")
    p_run.add_argument("--dump-tree", action="store_true", help="print the embedding tree (trial 0)")
    p_run.set_defaults(func=cmd_run)

    p_oracle = sub.add_parser("oracle", help="exact offline optimum for an instance")
    p_oracle.add_argument("--instance", required=True)
    p_oracle.add_argument("--mode", choices=("cds", "ds"), default="cds")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = sub.add_parser("verify", help="check a ledger against an instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--ledger", required=True)
    p_verify.add_argument("--mode", choices=VARIANTS, default="cds")
    p_verify.set_defaults(func=cmd_verify)

    p_pp = sub.add_parser("pp", help="run the parking-permit algorithm on rainy days")
    p_pp.add_argument("--rainy", required=True, help="comma separated day list")
    p_pp.add_argument("--leases", required=True, help="duration:cost pairs, comma separated")
    p_pp.add_argument("--horizon", type=int, default=None)
    p_pp.add_argument("--out", default=None)
    p_pp.set_defaults(func=cmd_pp)

    p_report = sub.add_parser("report", help="summarize a records CSV")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LeaselabError, OSError) as exc:
        sys.stderr.write(f"leaselab {args.command}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Experiment orchestration: seeded trials, verification, oracle ratios, reports.

Every trial derives its seed from (base seed, trial index) by stable hashing,
so runs are reproducible and embarrassingly parallel in principle. Costs are
carried as exact rationals end to end; CSV cells hold them as fraction
strings ("3", "5/2") so that downstream checks stay exact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    get_args,
    get_type_hints,
)

from .errors import ConfigError, InfeasibleOutput, RecordsError
from .generators import gen_instance
from .graphs import max_degree
from .instances import Instance, PurchaseLedger, StepReport
from .leases import as_cost, cost_sum
from .ocdsl import OcdslState
from .oracle import check_solution, offline_opt, offline_opt_ds
from .permits import PermitLeaser, pp_offline_opt
from .primal_dual import DualState


class OnlineLeaser(Protocol):
    """What every online algorithm offers: one request step at a time, each purchase a
    ledger row. A step report's C1 and C2 increments are the costs of its rows."""

    ledger: PurchaseLedger

    def serve_request(self, nodes: Sequence[int], t: int) -> StepReport: ...


# problem -> (ledger check, exact OPT cost). Each row looks its oracle up by module name when
# called, so a wrapper patched onto the module attribute (perfbench's tracer) sees the call.
VARIANTS: Dict[str, Tuple[Callable[[Instance, PurchaseLedger], bool], Callable[[Instance], Fraction]]] = {
    "cds": (lambda inst, ledger: check_solution(inst, ledger, True), lambda inst: offline_opt(inst)[0]),
    "ds": (lambda inst, ledger: check_solution(inst, ledger, False), lambda inst: offline_opt_ds(inst)[0]),
    "pp": (lambda inst, ledger: all(ledger.active_triplets(inst.catalog, t) for t, _ in inst.requests),
           lambda inst: pp_offline_opt(inst.times, inst.catalog)),  # one active lease per request time
}
# algorithm name -> (factory (instance, seed) -> a fresh leaser, the VARIANTS key of its problem)
ALGORITHMS: Dict[str, Tuple[Callable[[Instance, int], OnlineLeaser], str]] = {
    "ocdsl": (lambda inst, seed: OcdslState(inst.graph, inst.catalog, seed=seed), "cds"),
    "odsl-pd": (lambda inst, seed: DualState(inst.graph, inst.catalog), "ds"),
    "odsl-rr": (lambda inst, seed: OcdslState(inst.graph, inst.catalog, seed=seed, connect=False), "ds"),
    "pp": (lambda inst, seed: PermitLeaser(inst.catalog), "pp"),
}


class Run(NamedTuple):
    """One served instance. c1 and c2 sum the steps' increments, read from the ledger
    rows, so cost == c1 + c2 == ledger.total_cost()."""

    cost: Fraction
    c1: Fraction
    c2: Fraction
    ledger: PurchaseLedger
    steps: List[StepReport]
    state: OnlineLeaser


@dataclass
class ExperimentConfig:
    algorithm: str
    trials: int = 1
    base_seed: int = 0
    oracle: bool = False
    instance: Optional[Instance] = None  # fixed instance for all trials
    generator: Optional[Tuple[str, Dict]] = None  # (kind, params), fresh per trial
    instance_id: str = "instance"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if (self.instance is None) == (self.generator is None):
            raise ConfigError("provide exactly one of instance or generator")


@dataclass
class RunRecord:
    instance_id: str
    algorithm: str
    seed: int
    online_cost: Fraction
    c1: Fraction
    c2: Fraction
    opt_cost: Optional[Fraction]
    ratio: Optional[float]
    n: int
    lease_count: int
    max_degree: int
    steps: int
    wall_time_s: float = 0.0


# the records CSV columns are RunRecord's fields; wall_time_s is written only with --timing
CSV_COLUMNS = [f.name for f in fields(RunRecord) if f.name != "wall_time_s"]


def _cells(row: object, names: Sequence[str]) -> List[str]:
    """One CSV cell per named field: str() of the value, "" for None."""
    return ["" if v is None else str(v) for v in (getattr(row, name) for name in names)]


def trial_seed(base_seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_algorithm(algorithm: str, inst: Instance, seed: int) -> Run:
    """Serve the instance's requests in order with a fresh leaser."""
    state = ALGORITHMS[algorithm][0](inst, seed)
    steps = [state.serve_request(nodes, t) for t, nodes in inst.requests]
    c1 = cost_sum(step.c1_increment for step in steps)
    c2 = cost_sum(step.c2_increment for step in steps)
    return Run(c1 + c2, c1, c2, state.ledger, steps, state)


def verify_run(algorithm: str, inst: Instance, ledger: PurchaseLedger) -> bool:
    check, _ = VARIANTS[ALGORITHMS[algorithm][1]]
    return check(inst, ledger)


def oracle_cost(algorithm: str, inst: Instance) -> Fraction:
    _, opt = VARIANTS[ALGORITHMS[algorithm][1]]
    return opt(inst)


def run_trial(cfg: ExperimentConfig, index: int) -> Tuple[RunRecord, Run]:
    """Generate (or take) trial ``index``'s instance, run, verify and score it once."""
    seed = trial_seed(cfg.base_seed, index)
    if cfg.generator is not None:
        kind, params = cfg.generator
        inst = gen_instance(kind, params, random.Random(f"{seed}:inst"))
    else:
        inst = cfg.instance
        assert inst is not None
    started = time.monotonic()
    run = run_algorithm(cfg.algorithm, inst, seed)
    elapsed = time.monotonic() - started
    if not verify_run(cfg.algorithm, inst, run.ledger):
        raise InfeasibleOutput(f"{cfg.algorithm} produced an infeasible ledger on trial {index}")
    opt: Optional[Fraction] = None
    ratio: Optional[float] = None
    if cfg.oracle:
        opt = oracle_cost(cfg.algorithm, inst)
        ratio = float(run.cost / opt)
    record = RunRecord(
        instance_id=f"{cfg.instance_id}#{index}",
        algorithm=cfg.algorithm,
        seed=seed,
        online_cost=run.cost,
        c1=run.c1,
        c2=run.c2,
        opt_cost=opt,
        ratio=ratio,
        n=inst.graph.node_count,
        lease_count=len(inst.catalog),
        max_degree=max_degree(inst.graph),
        steps=len(inst.requests),
        wall_time_s=elapsed,
    )
    return record, run


def run_experiment(cfg: ExperimentConfig) -> List[RunRecord]:
    return [run_trial(cfg, index)[0] for index in range(cfg.trials)]


# ------------------------------------------------------------------ CSV and report


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """One CSV document with "\\n" line ends; cells are written with str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_rows(
    path: str, columns: Sequence[str], error: Callable[[str], Exception]
) -> Iterator[Tuple[str, Dict[str, str]]]:
    """Each row of the UTF-8 CSV file at ``path`` as ("<path> line <n>", {column: cell}); a header
    without one of ``columns``, text that is not UTF-8 or a CSV syntax error raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [name for name in columns if name not in (reader.fieldnames or ())]
            if missing:
                raise error(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                yield f"{path} line {reader.line_num}", row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"{path} is not UTF-8 CSV text ({exc})") from None


def records_to_csv(records: Sequence[RunRecord], timing: bool = False) -> str:
    rows = (_cells(rec, CSV_COLUMNS) + [f"{rec.wall_time_s:.6f}"] * timing for rec in records)
    return csv_text(CSV_COLUMNS + ["wall_time_s"] * timing, rows)


def _field_parsers(cls: type) -> Dict[str, Callable[[str], Any]]:
    """Field name -> parser from its annotation; an empty cell reads as None for Optional[X]."""
    parsers: Dict[str, Callable[[str], Any]] = {}
    for name, hint in get_type_hints(cls).items():
        inner = [arg for arg in get_args(hint) if arg is not type(None)]
        kind = inner[0] if inner else hint
        parse = as_cost if kind is Fraction else kind
        parsers[name] = (lambda text, x=parse: x(text) if text else None) if inner else parse
    return parsers


def read_records_csv(path: str) -> List[RunRecord]:
    parsers = _field_parsers(RunRecord)
    records = []
    for where, row in csv_rows(path, CSV_COLUMNS, RecordsError):
        try:
            values = {name: parse(row[name]) for name, parse in parsers.items() if name in row}
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise RecordsError(f"{where}: {exc}") from None
        records.append(RunRecord(**values))
    return records


@dataclass
class SummaryRow:
    group: str
    algorithm: str
    runs: int
    mean_ratio: Optional[float]
    median_ratio: Optional[float]
    max_ratio: Optional[float]
    total_cost: Fraction
    total_c1: Fraction
    total_c2: Fraction


def report(records: Sequence[RunRecord]) -> List[SummaryRow]:
    """Aggregate records per (instance family, algorithm); verifies C1+C2 accounting."""
    for rec in records:
        if rec.c1 + rec.c2 != rec.online_cost:
            raise RecordsError(
                f"cost split broken for {rec.instance_id}: "
                f"{rec.c1} + {rec.c2} != {rec.online_cost}"
            )
    groups: Dict[Tuple[str, str], List[RunRecord]] = {}
    for rec in records:
        family = rec.instance_id.split("#", 1)[0]
        groups.setdefault((family, rec.algorithm), []).append(rec)
    rows = []
    for (family, algorithm) in sorted(groups):
        members = groups[(family, algorithm)]
        ratios = [r.ratio for r in members if r.ratio is not None]
        rows.append(
            SummaryRow(
                group=family,
                algorithm=algorithm,
                runs=len(members),
                mean_ratio=statistics.fmean(ratios) if ratios else None,
                median_ratio=statistics.median(ratios) if ratios else None,
                max_ratio=max(ratios) if ratios else None,
                total_cost=cost_sum(r.online_cost for r in members),
                total_c1=cost_sum(r.c1 for r in members),
                total_c2=cost_sum(r.c2 for r in members),
            )
        )
    return rows


def summary_to_csv(rows: Sequence[SummaryRow]) -> str:
    names = [f.name for f in fields(SummaryRow)]
    return csv_text(names, (_cells(row, names) for row in rows))


def format_summary_table(rows: Sequence[SummaryRow]) -> str:
    if not rows:
        return "(no records)"

    def show(value: Any) -> str:
        if value is None:
            return "-"
        return f"{value:.4f}" if isinstance(value, float) else str(value)  # ratios

    table = [["group", "algorithm", "runs", "mean", "median", "max", "cost", "C1", "C2"]]
    table += [[show(getattr(row, f.name)) for f in fields(SummaryRow)] for row in rows]
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in table)


def steps_to_jsonl(reports: Sequence[StepReport]) -> str:
    return "".join(json.dumps(r.to_json(), separators=(",", ":")) + "\n" for r in reports)

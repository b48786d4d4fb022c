import csv
import dataclasses
import hashlib
import json
import random
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fraction_operators, fractional_cost, spy_guards
from leaselab import ocdsl, primal_dual
from leaselab.cli import _ledger_csv, _read_ledger_csv, main
from leaselab.errors import (
    ConfigError,
    EmptyRequest,
    InfeasibleOutput,
    InstanceError,
    LeaselabError,
    NonMonotonicTime,
    RecordsError,
)
from leaselab.generators import burst_times, canonical_catalog, gen_instance
from leaselab.graphs import build_graph
from leaselab.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    VARIANTS,
    ExperimentConfig,
    RunRecord,
    _field_parsers,
    format_summary_table,
    oracle_cost,
    read_records_csv,
    records_to_csv,
    report,
    run_algorithm,
    run_experiment,
    run_trial,
    steps_to_jsonl,
    trial_seed,
    verify_run,
)
from leaselab.instances import Instance, OnlineLeaser, PurchaseLedger, StepReport, make_instance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.ocdsl import OcdslState
from leaselab.oracle import offline_opt, offline_opt_ds
from leaselab.permits import PermitLeaser, pp_offline_opt
from leaselab.primal_dual import DualState


def test_gen_star_instance():
    inst = gen_instance("star", {"n": 4, "T": 2, "L": 1}, random.Random(0))
    assert inst.graph.node_count == 4
    assert len(inst.requests) == 2
    assert len(inst.catalog) == 1


def test_gen_path_matches_oracle_example():
    inst = gen_instance("path", {"n": 3, "T": 1, "k": 2}, random.Random(3))
    assert inst.graph.node_count == 3
    assert inst.requests[0][0] == 1


def test_gen_deterministic_under_seed():
    a = gen_instance("random-gnp-connected", {"n": 8, "p": 0.4}, random.Random(7))
    b = gen_instance("random-gnp-connected", {"n": 8, "p": 0.4}, random.Random(7))
    assert a == b


def test_gen_gnp_draws_without_listing_every_pair():
    # the 179,700 pairs of n = 600 alone took about 16 MB when G(n, p) listed them first
    tracemalloc.start()
    try:
        inst = gen_instance("random-gnp-connected", {"n": 600, "p": 8 / 600}, random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.graph.node_count == 600
    assert peak < 4 << 20


def test_gen_grid():
    inst = gen_instance("grid", {"rows": 2, "cols": 3}, random.Random(0))
    assert inst.graph.node_count == 6


def test_gen_pp_adversary_single_node_dominatable():
    inst = gen_instance("pp-adversary", {"n": 5, "L": 2, "horizon": 8}, random.Random(0))
    assert len(inst.graph.adjacency[0]) == 4  # the center dominates everything
    assert [t for t, _ in inst.requests] == burst_times(8) == [0, 1, 3, 7]


def test_gen_rejects_unknown_kind():
    with pytest.raises(ConfigError, match=r"^unknown generator kind 'nope'$"):
        gen_instance("nope", {}, random.Random(0))


def test_gen_gnp_without_nodes_fails_at_once():
    with pytest.raises(InstanceError, match=r"^need at least one node, got n=0$"):
        gen_instance("random-gnp-connected", {"n": 0}, random.Random(0))


@pytest.mark.parametrize("p", [7, -3, float("nan")])
def test_gen_gnp_rejects_a_p_outside_the_unit_interval_before_sampling(p):
    rng = random.Random(0)
    state = rng.getstate()
    message = re.escape(f"parameter p={float(p)} is not a probability in [0, 1]")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        gen_instance("random-gnp-connected", {"n": 5, "p": p}, rng)
    assert rng.getstate() == state  # no sample was drawn


@pytest.mark.parametrize("horizon", [0, -5])
def test_gen_pp_adversary_rejects_a_horizon_below_one(horizon):
    with pytest.raises(ConfigError, match=rf"^parameter horizon={horizon} must be at least 1$"):
        gen_instance("pp-adversary", {"horizon": horizon}, random.Random(0))


@pytest.mark.parametrize("steps", [0, -2])
def test_gen_rejects_a_request_count_below_one(steps):
    with pytest.raises(ConfigError, match=rf"^parameter T={steps} must be at least 1$"):
        gen_instance("star", {"T": steps}, random.Random(0))


def test_burst_times_nested():
    assert burst_times(16) == [0, 1, 3, 7, 15]


def test_instance_json_roundtrip():
    inst = gen_instance("star", {"n": 4, "T": 2, "L": 3}, random.Random(1))
    again = Instance.from_json(json.loads(json.dumps(inst.to_json())))
    assert again == inst


def test_instance_json_roundtrip_keeps_fractional_costs_exact():
    catalog = LeaseCatalog.from_pairs([(1, Fraction(1, 3)), (8, Fraction(3, 2))])
    inst = make_instance(build_graph(2, [(0, 1)]), catalog, [(0, [0]), (3, [1])])
    data = json.loads(json.dumps(inst.to_json()))
    assert [lease["cost"] for lease in data["leases"]] == ["1/3", "3/2"]
    assert Instance.from_json(data) == inst


def test_trial_seed_is_stable():
    assert trial_seed(0, 0) == trial_seed(0, 0)
    assert trial_seed(0, 0) != trial_seed(0, 1)
    assert trial_seed(0, 1) != trial_seed(1, 0)


def test_run_experiment_with_oracle_ratio_at_least_one():
    cfg = ExperimentConfig(
        algorithm="ocdsl",
        trials=1,
        base_seed=3,
        oracle=True,
        generator=("path", {"n": 3, "T": 1, "k": 2}),
        instance_id="path3",
    )
    (record,) = run_experiment(cfg)
    assert record.ratio is not None and record.ratio >= 1.0
    assert record.c1 + record.c2 == record.online_cost


def test_run_experiment_deterministic():
    cfg = dict(
        algorithm="ocdsl",
        trials=3,
        base_seed=9,
        oracle=True,
        generator=("star", {"n": 4, "T": 2, "L": 2, "k": 2}),
    )
    a = run_experiment(ExperimentConfig(**cfg))
    b = run_experiment(ExperimentConfig(**cfg))
    assert records_to_csv(a) == records_to_csv(b)


def test_run_experiment_all_algorithms():
    for algorithm in ALGORITHMS:
        cfg = ExperimentConfig(
            algorithm=algorithm,
            trials=2,
            base_seed=1,
            oracle=True,
            generator=("star", {"n": 4, "T": 2, "L": 2}),
        )
        records = run_experiment(cfg)
        assert len(records) == 2
        for rec in records:
            assert rec.online_cost > 0
            assert rec.ratio >= 1.0


def _path_ends_then_middle() -> Instance:
    """A 5-node path asked for both ends at t=0 and for its middle node at t=1."""
    return make_instance(
        build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        LeaseCatalog.from_pairs([(1, 1), (4, 2)]),
        [(0, [0, 4]), (1, [2])],
    )


def _apart_ledger() -> PurchaseLedger:
    """Nodes 1 and 3 of _path_ends_then_middle() at both request times: they dominate
    every request, but they are not adjacent."""
    apart = PurchaseLedger()
    for t in (0, 1):
        for node in (1, 3):
            apart.add(Triplet(node, 1, t), t, Fraction(1))
    return apart


def test_verify_run_checks_each_algorithm_against_its_variant():
    inst, apart = _path_ends_then_middle(), _apart_ledger()
    assert {alg: verify_run(alg, inst, apart) for alg in ALGORITHMS} == {
        "ocdsl": False, "odsl-pd": True, "odsl-rr": True, "pp": True,
    }
    first_only = PurchaseLedger()  # a row at the first request time, none live at the second
    first_only.add(Triplet(0, 1, 0), 0, Fraction(1))
    for ledger in (PurchaseLedger(), first_only):
        assert [alg for alg in ALGORITHMS if verify_run(alg, inst, ledger)] == []


def test_an_unknown_algorithm_is_refused():
    with pytest.raises(ConfigError, match=r"^unknown algorithm 'nope'$"):
        ExperimentConfig(algorithm="nope", instance=_path_ends_then_middle())


class IdleLeaser:
    """Buys nothing, so its ledger serves no request."""

    def __init__(self, inst: Instance, seed: int):
        self.ledger, self.catalog = PurchaseLedger(), inst.catalog

    def serve_request(self, nodes, t: int) -> StepReport:
        return StepReport(
            t=t, requested=tuple(nodes), purchases=[], c1_increment=Fraction(0), catalog=self.catalog
        )


def test_run_trial_refuses_a_ledger_that_fails_verification(monkeypatch):
    monkeypatch.setitem(ALGORITHMS, "odsl-pd", (IdleLeaser, "ds"))
    cfg = ExperimentConfig(algorithm="odsl-pd", instance=_path_ends_then_middle())
    with pytest.raises(InfeasibleOutput, match=r"^odsl-pd produced an infeasible ledger on trial 0$"):
        run_trial(cfg, 0)


def test_oracle_cost_is_each_variant_s_exact_optimum():
    inst = _path_ends_then_middle()
    costs = {alg: oracle_cost(alg, inst) for alg in ALGORITHMS}
    assert costs == {"ocdsl": 4, "odsl-pd": 3, "odsl-rr": 3, "pp": 2}
    assert costs["ocdsl"] == offline_opt(inst)[0]
    assert costs["odsl-pd"] == costs["odsl-rr"] == offline_opt_ds(inst)[0]
    assert costs["pp"] == pp_offline_opt(inst.times, inst.catalog)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_verify_checks_each_algorithm_s_ledger_under_its_variant(tmp_path, capsys, algorithm):
    inst = _path_ends_then_middle()
    inst_path, ledger_path = tmp_path / "inst.json", tmp_path / "ledger.csv"
    inst_path.write_text(json.dumps(inst.to_json()), encoding="utf-8")
    assert main([
        "run", "--instance", str(inst_path), "--algorithm", algorithm,
        "--out", str(tmp_path / "r.csv"), "--ledger-out", str(ledger_path),
    ]) == 0
    _, variant = ALGORITHMS[algorithm]
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path), "--ledger", str(ledger_path), "--mode", variant]) == 0
    assert capsys.readouterr().out == "FEASIBLE\n"
    assert verify_run(algorithm, inst, _read_ledger_csv(str(ledger_path), inst))


def test_cli_verify_modes_are_the_variants(tmp_path, capsys):
    inst_path, ledger_path = tmp_path / "inst.json", tmp_path / "apart.csv"
    inst_path.write_text(json.dumps(_path_ends_then_middle().to_json()), encoding="utf-8")
    ledger_path.write_text(_ledger_csv(_apart_ledger()), encoding="utf-8")
    verdicts = {}
    for mode in VARIANTS:
        code = main(["verify", "--instance", str(inst_path), "--ledger", str(ledger_path), "--mode", mode])
        verdicts[mode] = (code, capsys.readouterr().out)
    assert verdicts == {"cds": (1, "INFEASIBLE\n"), "ds": (0, "FEASIBLE\n"), "pp": (0, "FEASIBLE\n")}


def test_report_accounting_identity_and_max():
    cfg = ExperimentConfig(
        algorithm="ocdsl",
        trials=4,
        base_seed=2,
        oracle=True,
        generator=("random-gnp-connected", {"n": 5, "p": 0.5, "T": 2, "k": 2, "L": 2}),
        instance_id="gnp5",
    )
    records = run_experiment(cfg)
    rows = report(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.runs == 4
    assert row.total_c1 + row.total_c2 == row.total_cost
    assert row.max_ratio >= row.mean_ratio >= 1.0


def test_report_empty_is_ok():
    assert report([]) == []
    assert format_summary_table([]) == "(no records)"


def test_report_groups_by_all_of_the_instance_id_before_the_trial_index():
    # run --instance a#1.json names its trials a#1#0, a#1#1, ...: the family is a#1, not a
    records = [
        rec
        for instance_id in ("a#1", "a#2")
        for rec in run_experiment(ExperimentConfig(
            algorithm="pp", trials=2, base_seed=0, generator=("star", {"n": 3, "T": 2}),
            instance_id=instance_id,
        ))
    ]
    assert [rec.instance_id for rec in records] == ["a#1#0", "a#1#1", "a#2#0", "a#2#1"]
    assert [(row.group, row.runs) for row in report(records)] == [("a#1", 2), ("a#2", 2)]


def test_report_rejects_broken_split():
    cfg = ExperimentConfig(
        algorithm="pp",
        trials=1,
        base_seed=0,
        generator=("star", {"n": 3, "T": 2}),
    )
    record = run_experiment(cfg)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.c1 += 1
    with pytest.raises(RecordsError, match="cost split broken for instance#0"):
        dataclasses.replace(record, c1=record.c1 + 1)


def test_records_csv_roundtrip(tmp_path):
    records = [
        rec
        for algorithm in ALGORITHMS
        for oracle in (False, True)
        for rec in run_experiment(ExperimentConfig(
            algorithm=algorithm, trials=2, base_seed=5, oracle=oracle,
            generator=("path", {"n": 4, "T": 2, "k": 2, "L": 2}), instance_id=f"{algorithm}-{oracle}",
        ))
    ]
    assert any(rec.c2 for rec in records)  # OCDSL's Phase 2 cost survives the trip
    out = tmp_path / "records.csv"
    for timing in (False, True):
        out.write_text(records_to_csv(records, timing), encoding="utf-8")
        again = read_records_csv(str(out))
        # the CSV keeps a wall time to the microsecond, and only with --timing
        written = [
            dataclasses.replace(rec, wall_time_s=round(rec.wall_time_s, 6) if timing else 0.0)
            for rec in records
        ]
        assert again == written
        assert report(again) == report(records)  # each ratio read back is the costs' quotient


# ------------------------------------------------------------------ CLI


def test_cli_gen_run_verify_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    records_path = tmp_path / "records.csv"
    ledger_path = tmp_path / "ledger.csv"
    assert main([
        "gen", "--kind", "star", "--params", "n=4", "T=2", "L=2", "k=2",
        "--seed", "3", "--out", str(inst_path),
    ]) == 0
    assert main([
        "run", "--instance", str(inst_path), "--algorithm", "ocdsl",
        "--trials", "1", "--seed", "4", "--oracle",
        "--out", str(records_path), "--ledger-out", str(ledger_path),
    ]) == 0
    assert main([
        "verify", "--instance", str(inst_path), "--ledger", str(ledger_path),
    ]) == 0
    header = records_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("instance_id,algorithm,seed,online_cost,c1,c2,opt_cost,ratio")


def test_cli_reads_each_input_file_past_a_byte_order_mark(tmp_path, capsys):
    # an editor may save UTF-8 with a leading EF BB BF; each reader must skip it
    plain = {name: tmp_path / f"{name}.{ext}" for name, ext in
             (("inst", "json"), ("records", "csv"), ("ledger", "csv"))}
    assert main([
        "gen", "--kind", "star", "--params", "n=4", "T=3", "L=2", "k=2",
        "--seed", "3", "--out", str(plain["inst"]),
    ]) == 0
    run = ["--algorithm", "ocdsl", "--trials", "2", "--seed", "4", "--oracle"]
    assert main([
        "run", "--instance", str(plain["inst"]), *run,
        "--out", str(plain["records"]), "--ledger-out", str(plain["ledger"]),
    ]) == 0
    (tmp_path / "bom").mkdir()  # the same file names, since run names its records by file
    marked = {name: tmp_path / "bom" / path.name for name, path in plain.items()}
    for name, path in plain.items():
        marked[name].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    capsys.readouterr()

    def output(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    for files in (plain, marked):
        verdict = output(["verify", "--instance", str(plain["inst"]), "--ledger", str(files["ledger"])])
        assert verdict.startswith("FEASIBLE")
    table = output(["report", "--records", str(plain["records"])])
    assert output(["report", "--records", str(marked["records"])]) == table
    rerun = tmp_path / "rerun.csv"
    assert main(["run", "--instance", str(marked["inst"]), *run, "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == plain["records"].read_bytes()


def test_cli_gen_without_out_writes_the_instance_to_stdout(capsys):
    assert main(["gen", "--kind", "star", "--params", "n=4", "T=2", "--seed", "3"]) == 0
    inst = Instance.from_json(json.loads(capsys.readouterr().out))
    assert inst == gen_instance("star", {"n": 4, "T": 2}, random.Random("3:inst"))


def test_cli_run_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "run", "--kind", "random-gnp-connected", "--params", "n=6", "p=0.5", "T=3", "k=2", "L=2",
        "--algorithm", "ocdsl", "--trials", "3", "--seed", "11", "--oracle",
    ]
    main(argv + ["--out", str(out_a)])
    main(argv + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_oracle_and_report(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--kind", "path", "--params", "n=3", "T=1", "k=2", "--seed", "0",
          "--out", str(inst_path)])
    main(["oracle", "--instance", str(inst_path), "--out", str(tmp_path / "opt.csv")])
    out = capsys.readouterr().out
    assert "optimal cost:" in out
    records_path = tmp_path / "records.csv"
    main(["run", "--instance", str(inst_path), "--algorithm", "odsl-rr",
          "--trials", "2", "--seed", "1", "--oracle", "--out", str(records_path)])
    main(["report", "--records", str(records_path), "--out", str(tmp_path / "summary.csv")])
    table = capsys.readouterr().out
    assert "odsl-rr" in table


def test_cli_pp_subcommand(tmp_path):
    out = tmp_path / "pp.csv"
    assert main([
        "pp", "--rainy", "0,1", "--leases", "1:1,4:2", "--out", str(out),
    ]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "row,t,lease,start,cost,opt,ratio"
    assert lines[-1].startswith("summary,")
    assert lines[-1].endswith("4,2,2.0")


# (--rainy, --leases, --horizon or None): repeated days, fractional and decimal costs
PP_DIFFERENTIAL_CASES = [
    ("0,1,5", "1:1,4:2", None),
    ("0,1,5", "1:1,4:2", 8),
    ("3,3,4,3", "1:1,4:2", None),
    ("0,1,2,3,9,17", "1:1/3,2:1/2,8:1", 32),
    ("0,5,40,41,42,100", "1:2,4:5,16:10", 128),
    ("7,8", "1:1.5,2:2", None),
]


@pytest.mark.parametrize("rainy, leases, horizon", PP_DIFFERENTIAL_CASES)
def test_cli_pp_equals_run_on_the_one_node_instance(tmp_path, rainy, leases, horizon):
    pp_out, ledger_out, records_out = (str(tmp_path / name) for name in ("pp.csv", "l.csv", "r.csv"))
    argv = ["pp", "--rainy", rainy, "--leases", leases, "--out", pp_out]
    assert main(argv + ([] if horizon is None else ["--horizon", str(horizon)])) == 0
    pairs = (pair.split(":") for pair in leases.split(","))
    instance = {
        "n": 1,
        "edges": [],
        "leases": [{"duration": int(duration), "cost": cost} for duration, cost in pairs],
        "requests": [{"t": t, "nodes": [0]} for t in sorted({int(day) for day in rainy.split(",")})],
    }
    (tmp_path / "i.json").write_text(json.dumps(instance), encoding="utf-8")
    assert main([
        "run", "--instance", str(tmp_path / "i.json"), "--algorithm", "pp",
        "--ledger-out", ledger_out, "--out", records_out,
    ]) == 0
    with open(pp_out, encoding="utf-8") as fh:
        pp_rows = list(csv.DictReader(fh))
    with open(ledger_out, encoding="utf-8") as fh:
        ledger_rows = list(csv.DictReader(fh))
    summary = pp_rows.pop()
    assert summary["row"] == "summary" and {row["row"] for row in pp_rows} == {"purchase"}
    assert [(r["t"], r["lease"], r["start"], r["cost"]) for r in pp_rows] == [
        (r["step"], r["lease"], r["start"], r["cost"]) for r in ledger_rows
    ]
    assert {r["node"] for r in ledger_rows} == {"0"}
    assert Fraction(summary["cost"]) == read_records_csv(records_out)[0].online_cost


def test_cli_pd_steps_end_with_primal_dual_pair(tmp_path):
    steps = tmp_path / "pd.jsonl"
    main([
        "run", "--kind", "path", "--params", "n=4", "T=2", "k=2",
        "--algorithm", "odsl-pd", "--seed", "3",
        "--out", str(tmp_path / "r.csv"), "--steps-out", str(steps),
    ])
    lines = steps.read_text(encoding="utf-8").splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"primal", "dual"}
    from fractions import Fraction

    assert Fraction(final["dual"]) <= Fraction(final["primal"])


def test_cli_steps_jsonl(tmp_path):
    steps = tmp_path / "steps.jsonl"
    main([
        "run", "--kind", "star", "--params", "n=4", "T=2", "L=1", "k=3",
        "--algorithm", "ocdsl", "--seed", "8", "--steps-out", str(steps),
        "--out", str(tmp_path / "r.csv"),
    ])
    lines = steps.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    payload = json.loads(lines[0])
    for key in ("t", "requested", "purchases", "s_t", "representatives", "root", "r_t",
                "c1_increment", "c2_increment"):
        assert key in payload


@pytest.mark.parametrize(
    "row",
    # lease 2 (duration 4) from 1; lease 0 names no type; line 2 again; a cell
    # that is no integer; a node outside the 4-node star
    ["0,2,1,1,2", "0,0,0,1,3", "0,1,1,1,1", "x,1,1,1,1", "99,1,1,1,1"],
    ids=["misaligned-start", "lease-0", "repeated-row", "non-integer", "node-outside-graph"],
)
def test_cli_verify_rejects_a_ledger_row_off_the_slot_grid(tmp_path, capsys, row):
    inst_path = tmp_path / "inst.json"
    ledger_path = tmp_path / "ledger.csv"
    main(["gen", "--kind", "star", "--params", "n=4", "T=2", "L=2", "k=2", "--out", str(inst_path)])
    ledger_path.write_text("node,lease,start,step,cost\n0,1,1,1,1\n" + row + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path), "--ledger", str(ledger_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("leaselab verify: ") and "line 3" in captured.err
    assert captured.err.count("\n") == 1


CONTRACT_GRID = ("grid", {"rows": 3, "cols": 3, "T": 8, "k": 3, "L": 2})


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_serves_through_one_contract(algorithm):
    kind, params = CONTRACT_GRID
    inst = gen_instance(kind, params, random.Random("contract:inst"))
    run = run_algorithm(algorithm, inst, 4)
    assert [step.t for step in run.steps] == list(inst.times)
    c1 = sum((step.c1_increment for step in run.steps), Fraction(0))
    c2 = sum((step.c2_increment for step in run.steps), Fraction(0))
    assert (c1, c2) == (run.c1, run.c2)
    assert run.c1 + run.c2 == run.cost == run.ledger.total_cost()
    assert run.ledger is run.state.ledger
    # a step's purchases are the ledger's own triplets of that step, in purchase order, and
    # a ledger row keeps its step alone: no purchase is copied
    bought = [tr for step in run.steps for tr in step.purchases]
    assert all(type(value) is int for value in run.ledger.entries.values())
    assert len(bought) == len(run.ledger) and all(a is b for a, b in zip(bought, run.ledger.entries))
    assert run.ledger.rows() == [
        (*tr, step.t, inst.catalog.cost(tr.lease)) for step in run.steps for tr in step.purchases
    ]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_cli_run_exports_trial_0_of_several(tmp_path, algorithm):
    kind, params = CONTRACT_GRID
    ledger_path, steps_path = tmp_path / "ledger.csv", tmp_path / "steps.jsonl"
    assert main([
        "run", "--kind", kind, "--params", *(f"{k}={v}" for k, v in params.items()),
        "--algorithm", algorithm, "--trials", "3", "--seed", "6",
        "--out", str(tmp_path / "r.csv"),
        "--ledger-out", str(ledger_path), "--steps-out", str(steps_path),
    ]) == 0
    seed = trial_seed(6, 0)
    inst = gen_instance(kind, params, random.Random(f"{seed}:inst"))
    run = run_algorithm(algorithm, inst, seed)
    assert ledger_path.read_bytes() == _ledger_csv(run.ledger).encode()
    trailer = 1 if algorithm == "odsl-pd" else 0  # the primal/dual pair
    assert len(steps_path.read_text(encoding="utf-8").splitlines()) == len(inst.requests) + trailer


INSTANCE = {
    "n": 3,
    "edges": [[0, 1], [1, 2]],
    "leases": [{"duration": 1, "cost": 1}],
    "requests": [{"t": 1, "nodes": [0, 2]}],
}
BROKEN_INSTANCES = {
    "n-not-int": {**INSTANCE, "n": "x"},
    "leases-null": {**INSTANCE, "leases": None},
    "no-leases-key": {k: v for k, v in INSTANCE.items() if k != "leases"},
    "request-without-nodes": {**INSTANCE, "requests": [{"t": 1}]},
    "one-ended-edge": {**INSTANCE, "edges": [[0]]},
    # JSON reads 1e400 as inf, which json.dumps writes as Infinity
    "t-overflows": {**INSTANCE, "requests": [{"t": 1e400, "nodes": [0]}]},
    "n-not-whole": {**INSTANCE, "n": 3.5},
    "cost-huge-exponent": {**INSTANCE, "leases": [{"duration": 1, "cost": "1e300000000"}]},
    "no-requests": {**INSTANCE, "requests": []},
    "self-loop": {**INSTANCE, "edges": [[0, 1], [1, 2], [2, 2]]},
    "edge-repeated": {**INSTANCE, "edges": [[0, 1], [1, 2], [1, 0]]},
    "edge-past-last-node": {**INSTANCE, "edges": [[0, 1], [1, 3]]},
    "disconnected": {**INSTANCE, "edges": [[0, 1]]},
}
HEADER = ",".join(CSV_COLUMNS)
LEDGER_HEADER = "node,lease,start,step,cost"
# name -> (ledger file text, the columns its header lacks)
LEDGER_HEADERS_MISSING_COLUMNS = {
    "empty-file": ("", "node, lease, start, step, cost"),
    "foreign-header": ("a,b\n", "node, lease, start, step, cost"),
    "missing-columns": ("node,lease\n", "start, step, cost"),
}
# name -> a records row (under HEADER) whose record breaks one of RunRecord's rules
RECORDS_BREAKING_A_RULE = {
    "records-broken-split": "x#0,ocdsl,1,3,1,1,,,3,1,2,1",
    # the ratio cell must be float(online_cost / opt_cost), and empty exactly when opt_cost is
    "records-ratio-not-the-cost-quotient": "x#0,ocdsl,1,3,1,2,2,9.0,3,1,2,1",
    "records-opt-cost-zero": "x#0,ocdsl,1,3,1,2,0,1.0,3,1,2,1",
    "records-ratio-inf-without-opt": "x#0,ocdsl,1,3,1,2,,inf,3,1,2,1",
    "records-ratio-nan-without-opt": "x#0,ocdsl,1,3,1,2,,nan,3,1,2,1",
    "records-opt-without-ratio": "x#0,ocdsl,1,3,1,2,2,,3,1,2,1",
    "records-ratio-past-float-range": "x#0,ocdsl,1,1e999,1e999,0,1e-999,inf,3,1,2,1",
    "records-c1-negative": "x#0,ocdsl,1,3,-1,4,,,3,1,2,1",
    "records-n-zero": "x#0,ocdsl,1,3,1,2,,,0,1,0,1",
    "records-lease-count-zero": "x#0,ocdsl,1,3,1,2,,,3,0,2,1",
    "records-max-degree-not-below-n": "x#0,ocdsl,1,3,1,2,,,3,1,3,1",
    "records-max-degree-negative": "x#0,ocdsl,1,3,1,2,,,3,1,-1,1",
    "records-steps-zero": "x#0,ocdsl,1,3,1,2,,,3,1,2,0",
    "records-unknown-algorithm": "x#0,nope,1,3,1,2,,,3,1,2,1",
    # pp's variant has no Phase 2, and trial_seed gives 0..2^64-1
    "records-c2-without-phase-2": "x#0,pp,1,3,1,2,,,3,1,2,1",
    "records-seed-negative": "x#0,ocdsl,-5,3,1,2,,,3,1,2,1",
    "records-seed-past-64-bits": f"x#0,ocdsl,{2**64},3,1,2,,,3,1,2,1",
}
PAST_THE_CAP = json.dumps(
    gen_instance("grid", {"rows": 3, "cols": 3, "T": 4, "L": 2}, random.Random(1)).to_json()
)
# name -> (argv, files to write first)
CLI_ERRORS = {
    "trials-0": (["run", "--kind", "star", "--trials", "0"], {}),
    "pp-rainy-x": (["pp", "--rainy", "0,x", "--leases", "1:1"], {}),
    "pp-lease-without-cost": (["pp", "--rainy", "0", "--leases", "1:1,4"], {}),
    "pp-negative-day": (["pp", "--rainy", "0,-3", "--leases", "1:1"], {}),
    "pp-lease-huge-exponent": (["pp", "--rainy", "0", "--leases", "1:1e300000000"], {}),
    "pp-lease-cost-past-digit-bound": (["pp", "--rainy", "0", "--leases", "1:1e4300"], {}),
    "pp-rainy-day-past-horizon": (["pp", "--rainy", "9", "--leases", "1:1", "--horizon", "8"], {}),
    "pp-duration-not-power-of-two": (["pp", "--rainy", "0", "--leases", "3:1"], {}),
    "pp-cost-zero": (["pp", "--rainy", "0", "--leases", "1:0"], {}),
    "pp-duration-repeated": (["pp", "--rainy", "0", "--leases", "1:1,1:2"], {}),
    "pp-longer-lease-costs-less": (["pp", "--rainy", "0", "--leases", "1:2,2:1"], {}),
    "pp-longer-lease-costs-more-per-unit": (["pp", "--rainy", "0", "--leases", "1:1,2:3"], {}),
    # the one-node instance of no rainy day has no requests, so pp refuses it as run does
    "pp-no-rainy-day": (["pp", "--rainy", "", "--leases", "1:1"], {}),
    **{
        name: (["run", "--instance", "i.json"], {"i.json": json.dumps(data)})
        for name, data in BROKEN_INSTANCES.items()
    },
    "not-json": (["run", "--instance", "i.json"], {"i.json": "{not json"}),
    # json.load raises RecursionError, not ValueError, on arrays nested this deep
    "instance-nested-too-deep": (
        ["run", "--instance", "i.json"], {"i.json": b"[" * 200_000 + b"]" * 200_000}
    ),
    # Fraction(True) == 1, yet the instance format has no boolean numbers
    "instance-cost-true": (
        ["run", "--instance", "i.json", "--oracle"],
        {"i.json": json.dumps({
            "n": 2, "edges": [[0, 1]], "leases": [{"duration": 1, "cost": True}],
            "requests": [{"t": 0, "nodes": [0]}],
        })},
    ),
    "records-missing-column": (
        ["report", "--records", "r.csv"], {"r.csv": "instance_id,algorithm\nx#0,ocdsl\n"}
    ),
    "records-bad-cell": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + "\nx#0,ocdsl,1,3,1,x,,,3,1,2,1\n"}
    ),
    # Fraction("1e300000000") would build 10**300000000 and never return
    "records-huge-exponent": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + "\nx#0,ocdsl,1,3,1,2,1e300000000,,3,1,2,1\n"}
    ),
    "ledger-negative-start": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n0,1,-4,0,1\n"},
    ),
    "ledger-negative-step": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n0,1,1,-3,1\n"},
    ),
    "ledger-huge-exponent": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n0,1,1,1,1e300000000\n"},
    ),
    "ledger-cost-not-the-lease-cost": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n0,1,1,1,2\n"},
    ),
    # a row must have exactly as many cells as the header
    "ledger-extra-cell": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n1,1,1,1,1,junk\n"},
    ),
    "ledger-short-row": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n1,1,1,1\n"},
    ),
    "records-extra-cell": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + "\nx#0,ocdsl,1,3,1,2,,,3,1,2,1,junk\n"}
    ),
    **{
        name: (["report", "--records", "r.csv"], {"r.csv": f"{HEADER}\n{row}\n"})
        for name, row in RECORDS_BREAKING_A_RULE.items()
    },
    # a header that names a column twice: the last cell of that name would win
    "records-repeated-column": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + ",c1\nx#0,ocdsl,1,3,1,2,,,3,1,2,1,1\n"}
    ),
    "ledger-repeated-column": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + ",cost\n0,1,1,1,99,1\n"},
    ),
    "params-not-a-number": (["run", "--kind", "star", "--params", "n=x"], {}),
    "params-without-equals": (["run", "--kind", "star", "--params", "n"], {}),
    "params-not-whole": (["run", "--kind", "star", "--params", "n=3.5"], {}),
    "params-unknown-name": (["run", "--kind", "star", "--params", "n=4", "t=50"], {}),
    "run-without-source": (["run"], {}),
    "run-instance-and-kind": (
        ["run", "--instance", "i.json", "--kind", "grid", "--params", "rows=5", "cols=5", "T=9"],
        {"i.json": json.dumps(INSTANCE)},
    ),
    "run-params-without-kind": (
        ["run", "--instance", "i.json", "--params", "n=4"], {"i.json": json.dumps(INSTANCE)}
    ),
    "gen-too-many-lease-types": (["gen", "--kind", "star", "--params", "L=5"], {}),
    "gen-pp-adversary-one-node": (["gen", "--kind", "pp-adversary", "--params", "n=1"], {}),
    "grid-negative-dimensions": (
        ["gen", "--kind", "grid", "--params", "rows=-1", "cols=-1", "T=1"], {}
    ),
    "k-not-positive": (["gen", "--kind", "star", "--params", "k=0"], {}),
    "T-not-positive": (["gen", "--kind", "star", "--params", "T=0"], {}),
    "gen-pp-adversary-horizon-not-positive": (
        ["gen", "--kind", "pp-adversary", "--params", "horizon=-5"], {}
    ),
    "gen-gnp-p-above-one": (["gen", "--kind", "random-gnp-connected", "--params", "n=5", "p=7"], {}),
    "gen-gnp-p-negative": (["gen", "--kind", "random-gnp-connected", "--params", "n=5", "p=-3"], {}),
    "gen-gnp-never-connected": (
        ["gen", "--kind", "random-gnp-connected", "--params", "n=6", "p=0"], {}
    ),
    # a 3x3 grid with T=4 and L=2 has 36 candidates in its top slot [0, 4), past the cap of 24
    **{
        f"oracle-{mode}-past-the-cap": (
            ["oracle", "--instance", "i.json", "--mode", mode], {"i.json": PAST_THE_CAP}
        )
        for mode in ("cds", "ds")
    },
    "missing-records": (["report", "--records", "nope.csv"], {}),
    "missing-instance": (["run", "--instance", "nope.json"], {}),
    "missing-ledger": (
        ["verify", "--instance", "i.json", "--ledger", "nope.csv"], {"i.json": json.dumps(INSTANCE)}
    ),
    "records-not-utf8": (["report", "--records", "r.csv"], {"r.csv": b"\xff\xfe"}),
    "ledger-not-utf8": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": b"\xff\xfe"},
    ),
    # the csv module rejects a NUL byte before Python 3.11 and a cell over its field limit always
    "records-nul-byte": (["report", "--records", "r.csv"], {"r.csv": HEADER + "\nx\x00\n"}),
    "ledger-nul-byte": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": LEDGER_HEADER + "\n0,1,1,1,\x00\n"},
    ),
    "records-cell-over-field-limit": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + "\n" + "x" * 200_000 + "\n"}
    ),
    "ledger-cell-over-field-limit": (
        ["verify", "--instance", "i.json", "--ledger", "l.csv"],
        {"i.json": json.dumps(INSTANCE), "l.csv": f"{LEDGER_HEADER}\n0,1,1,1,{'1' * 200_000}\n"},
    ),
    **{
        f"ledger-{name}": (
            ["verify", "--instance", "i.json", "--ledger", "l.csv"],
            {"i.json": json.dumps(INSTANCE), "l.csv": text},
        )
        for name, (text, _) in LEDGER_HEADERS_MISSING_COLUMNS.items()
    },
}


def test_cli_reports_a_library_error_in_one_line(tmp_path, capsys):
    # a 3x3 grid has more candidate triplets than the exact oracle takes
    code = main([
        "run", "--kind", "grid", "--params", "rows=3", "cols=3", "T=4", "L=2",
        "--oracle", "--out", str(tmp_path / "r.csv"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("leaselab run: candidate universe has ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, files", CLI_ERRORS.values(), ids=list(CLI_ERRORS))
def test_cli_reports_each_bad_input_in_one_line(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    code = main(argv + (["--out", "out.csv"] if argv[0] in ("run", "pp") else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"leaselab {argv[0]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("row", RECORDS_BREAKING_A_RULE.values(), ids=list(RECORDS_BREAKING_A_RULE))
def test_a_record_that_breaks_a_rule_cannot_be_built(tmp_path, monkeypatch, capsys, row):
    cells = dict(zip(CSV_COLUMNS, next(csv.reader([row]))))
    parsers = _field_parsers(RunRecord)
    with pytest.raises(RecordsError) as refused:
        RunRecord(**{name: parse(cells[name]) for name, parse in parsers.items() if name in cells})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.csv").write_text(f"{HEADER}\n{row}\n", encoding="utf-8")
    assert main(["report", "--records", "r.csv"]) == 2
    assert capsys.readouterr().err == f"leaselab report: r.csv line 2: {refused.value}\n"


def test_cli_verify_names_a_column_the_ledger_header_repeats(tmp_path, capsys):
    # with the last cost cell winning, this row would read as lease 1's cost and pass
    (tmp_path / "i.json").write_text(json.dumps(INSTANCE), encoding="utf-8")
    (tmp_path / "l.csv").write_text(LEDGER_HEADER + ",cost\n0,1,1,1,99,1\n", encoding="utf-8")
    ledger = str(tmp_path / "l.csv")
    assert main(["verify", "--instance", str(tmp_path / "i.json"), "--ledger", ledger]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"leaselab verify: {ledger}: column cost appears twice\n"


@pytest.mark.parametrize(
    "text, missing", LEDGER_HEADERS_MISSING_COLUMNS.values(), ids=list(LEDGER_HEADERS_MISSING_COLUMNS)
)
def test_cli_verify_names_the_columns_a_ledger_header_lacks(tmp_path, capsys, text, missing):
    (tmp_path / "i.json").write_text(json.dumps(INSTANCE), encoding="utf-8")
    (tmp_path / "l.csv").write_text(text, encoding="utf-8")
    ledger = str(tmp_path / "l.csv")
    assert main(["verify", "--instance", str(tmp_path / "i.json"), "--ledger", ledger]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"leaselab verify: {ledger}: missing column(s) {missing}\n"


@pytest.mark.parametrize("row, count", [("1,1,1,1,1,junk", 6), ("1,1,1,1", 4)])
def test_cli_verify_names_the_header_cell_count_a_row_breaks(tmp_path, capsys, row, count):
    (tmp_path / "i.json").write_text(json.dumps(INSTANCE), encoding="utf-8")
    (tmp_path / "l.csv").write_text(f"{LEDGER_HEADER}\n\n1,1,1,1,1\n{row}\n", encoding="utf-8")
    ledger = str(tmp_path / "l.csv")
    assert main(["verify", "--instance", str(tmp_path / "i.json"), "--ledger", ledger]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"leaselab verify: {ledger} line 4: {count} cells, but the header has 5\n"


def test_a_header_only_ledger_reads_as_an_empty_ledger(tmp_path):
    path = tmp_path / "l.csv"
    path.write_text(LEDGER_HEADER + "\n", encoding="utf-8")
    assert len(_read_ledger_csv(str(path), Instance.from_json(INSTANCE))) == 0


CELLS = st.sampled_from(["", "0", "1", "-1", "2/4", "1/0", "1e3", "nan", "x#0"]) | st.text(max_size=4)
LEDGER_ROW = {"node": "0", "lease": "1", "start": "1", "step": "1", "cost": "1"}
RECORD_ROW = dict(zip(CSV_COLUMNS, "x#0,ocdsl,1,3,1,2,,,3,1,2,1".split(",")))


@st.composite
def csv_files(draw, valid_row):
    """Bytes of a CSV file: under a header of some of the row's columns in any order,
    copies of ``valid_row`` with up to two cells fuzzed, sometimes with undecodable
    bytes after them; or random bytes alone."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=24))
    columns = list(valid_row)
    header = draw(st.permutations(columns) | st.lists(st.sampled_from(columns), unique=True))
    lines = [header]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        fuzzed = draw(st.sets(st.sampled_from(header), max_size=2)) if header else set()
        row = [draw(CELLS) if name in fuzzed else valid_row[name] for name in header]
        lines.append(row + draw(st.lists(CELLS, max_size=1)))
    text = "".join(",".join(line) + "\n" for line in lines)
    return text.encode() + draw(st.just(b"") | st.sampled_from([b"\xff", b"\xc3", b"\x00"]))


@given(data=csv_files(LEDGER_ROW))
@settings(max_examples=300, deadline=None)
def test_ledger_reader_parses_or_raises_a_library_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-ledger.csv"
    path.write_bytes(data)
    try:
        _read_ledger_csv(str(path), Instance.from_json(INSTANCE))
    except LeaselabError:
        pass


@given(data=csv_files(RECORD_ROW))
@settings(max_examples=300, deadline=None)
def test_records_reader_parses_or_raises_a_library_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-records.csv"
    path.write_bytes(data)
    try:
        read_records_csv(str(path))
    except LeaselabError:
        pass


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("leaselab ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_keeps_the_request_rule(algorithm):
    inst = make_instance(build_graph(3, [(0, 1), (1, 2)]), canonical_catalog(2), [(1, [0])])
    state = ALGORITHMS[algorithm][0](inst, 0)
    assert isinstance(state, OnlineLeaser)  # the request rule and the ledger live on the base
    with pytest.raises(InstanceError) as negative:
        state.serve_request([0], -1)
    assert negative.type is InstanceError
    assert state.serve_request([2, 0, 2], 3).requested == (0, 2)
    for t in (2, 3):  # backward, then repeated
        with pytest.raises(NonMonotonicTime):
            state.serve_request([1], t)
    with pytest.raises(EmptyRequest):
        state.serve_request([], 4)
    assert state.serve_request([1], 4).t == 4  # a rejected step leaves the state as it was
    for t, outside in ((5, -1), (6, 3)):  # a node outside the 3-node path
        with pytest.raises(InstanceError, match="outside the graph"):
            state.serve_request([outside], t)
        assert state.serve_request([0], t).t == t


# 40 seeded instances, each served by every algorithm at its own times and
# shifted by one and by three of the longest lease's durations
SHIFT_FAMILIES = [
    ("grid", {"rows": 3, "cols": 4, "T": 5, "k": 3, "L": 3}, 15),
    ("random-gnp-connected", {"n": 8, "p": 0.4, "T": 5, "k": 2, "L": 3}, 15),
    ("pp-adversary", {"n": 5, "L": 4, "horizon": 64}, 10),
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_shifting_every_time_by_whole_longest_leases_keeps_the_cost_split(algorithm):
    for kind, params, count in SHIFT_FAMILIES:
        for index in range(count):
            inst = gen_instance(kind, params, random.Random(f"shift:{index}"))
            base = run_algorithm(algorithm, inst, index)
            for multiple in (1, 3):
                shift = multiple * inst.catalog.max_duration()
                moved = [(t + shift, nodes) for t, nodes in inst.requests]
                moved_inst = make_instance(inst.graph, inst.catalog, moved)
                run = run_algorithm(algorithm, moved_inst, index)
                assert (run.c1, run.c2) == (base.c1, base.c2), (kind, index, multiple)


# sha256 of the step JSONL plus the ledger rows, and for OCDSL the exact
# fractional cost and guard sum, frozen from the implementation that scanned
# the whole ledger and recomputed every growth factor (odsl-pd and pp: from the
# one that kept each step's purchases in a list of its own): speed-ups and
# refactors must keep them byte-identical.
GOLDEN_6X6 = {
    "ocdsl": (
        "269fd64faf77a36619fb0acc0be9826654ed63ab8fb7cc37cc5ac9792e3b4d8d",
        Fraction(2190428503, 37791360),
        Fraction(119141, 104976),
    ),
    "odsl-rr": (
        "7b760e976ad5f8b87df7734f8141de0cde5aa26837127a582e460646c4980c7a",
        Fraction(230592773, 4199040),
        Fraction(2321, 1944),
    ),
    "odsl-pd": ("169caaf08edd6bdd480c977cc0777d17de66b17c6f9c36c1f6da8a13cf0c1be8", None, None),
    "pp": ("23d0ca6d1ae6502028f394e261eee79323fa5aeefc7564f2bd2a764314720f3e", None, None),
}


GOLDEN_6X6_PARAMS = {"rows": 6, "cols": 6, "T": 30, "k": 4, "L": 3}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_6X6))
def test_fixed_seed_grid_run_is_frozen(algorithm, monkeypatch):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    guards = spy_guards(monkeypatch)
    _, _, _, ledger, reports, state = run_algorithm(algorithm, inst, 5)
    text = steps_to_jsonl(reports) + "".join(
        ",".join(map(str, row)) + "\n" for row in ledger.rows()
    )
    digest, frozen_cost, min_guard_sum = GOLDEN_6X6[algorithm]
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if frozen_cost is not None:
        # the fractional cost is Σ c_l·w over the weights; the guard, the least mass after a growth
        assert fractional_cost(state) == frozen_cost
        assert min(guards[state]) == min_guard_sum


def test_golden_grid_served_per_occurrence_matches_serve_request():
    # perfbench's lockstep serves odsl-pd one occurrence at a time, in node order
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    state = DualState(inst.graph, inst.catalog)
    for t, nodes in inst.requests:
        for u in nodes:
            state.serve(u, t)
    run = run_algorithm("odsl-pd", inst, 5)
    assert state.ledger.rows() == run.ledger.rows()
    assert state.totals() == run.state.totals()


# Fraction operator calls in one GOLDEN_6X6 run: ``before`` counted at the implementation that
# built Phase 1's growth constants on every growth, and a bound a little above the count
# since Phase 1 grows its weights in ints: 1 for odsl-rr and 12 to 15 for ocdsl, none of
# them in Phase 1 (the rest sample the tree embedding and total the run)
GOLDEN_FRACTION_CALLS = {"odsl-rr": 4, "ocdsl": 20}


@pytest.mark.parametrize("algorithm, before", [("odsl-rr", 989), ("ocdsl", 1135)])
def test_golden_grid_run_makes_at_most_half_the_fraction_operator_calls(algorithm, before, monkeypatch):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    calls = count_fraction_operators(monkeypatch)
    run_algorithm(algorithm, inst, 5)
    assert len(calls) <= GOLDEN_FRACTION_CALLS[algorithm] < before // 2


# Phase 1 calls in one GOLDEN_6X6 run: (round_purchases, step i's PurchaseLedger.holds checks,
# fallback); each round_purchases call draws the thresholds its dominators lack. The
# implementation that drew each threshold in a call of its own and called the fallback after
# every growth made 357 and 348 threshold calls, 150 and 151 dominator checks and 30 and 31 fallbacks.
GOLDEN_PHASE1_CALLS = {"odsl-rr": (30, 120, 0), "ocdsl": (31, 120, 0)}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_PHASE1_CALLS))
def test_golden_grid_run_draws_thresholds_once_per_rounding_and_falls_back_only_after_an_empty_one(
    algorithm, monkeypatch
):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    calls = dict.fromkeys(("round_purchases", "holds", "fallback"), 0)
    empty_roundings = [0]

    def spy(owner, name):
        method = getattr(owner, name)

        def spied(self, *args):
            calls[name] += 1
            result = method(self, *args)
            if name == "round_purchases" and not result:
                empty_roundings[0] += 1
            return result

        monkeypatch.setattr(owner, name, spied)

    # step i is OCDSL's one caller of PurchaseLedger.holds
    for owner, name in ((OcdslState, "round_purchases"), (PurchaseLedger, "holds"), (OcdslState, "fallback")):
        spy(owner, name)
    run_algorithm(algorithm, inst, 5)
    roundings, checks, fallbacks = GOLDEN_PHASE1_CALLS[algorithm]
    assert calls["round_purchases"] == roundings
    assert calls["holds"] == checks == sum(len(nodes) for _, nodes in inst.requests)
    assert calls["fallback"] == empty_roundings[0] == fallbacks


# ``dominators`` calls in one GOLDEN_6X6 run: only an occurrence with no held dominator builds
# its dominators, so OCDSL builds them once per growth and odsl-pd once per uncovered occurrence
@pytest.mark.parametrize("algorithm", ["ocdsl", "odsl-rr", "odsl-pd"])
def test_golden_grid_run_builds_dominators_only_for_occurrences_with_no_held_dominator(
    algorithm, monkeypatch
):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    calls, needed = [], []
    for module in (ocdsl, primal_dual):
        real = module.dominators
        monkeypatch.setattr(module, "dominators", lambda *args, real=real: calls.append(args) or real(*args))
    grow, serve = OcdslState.grow_fractional, DualState.serve

    def spied_grow(state, doms):
        needed.append(doms)
        return grow(state, doms)

    def spied_serve(state, u, t):
        dual = state.dual
        serve(state, u, t)
        if state.dual != dual:  # an uncovered occurrence raises its dual above zero
            needed.append(u)

    monkeypatch.setattr(OcdslState, "grow_fractional", spied_grow)
    monkeypatch.setattr(DualState, "serve", spied_serve)
    run_algorithm(algorithm, inst, 5)
    occurrences = sum(len(nodes) for _, nodes in inst.requests)
    assert 0 < len(calls) == len(needed) < occurrences


# purchases in one GOLDEN_6X6 run as (buy calls, add calls): OCDSL buys each rounding that
# bought (31 for ocdsl, 30 for odsl-rr), each fallback (none) and each representative it bought
# (60 for ocdsl) in one buy call, odsl-pd each uncovered occurrence's tight dominators (68), and
# pp each request step's permits (30 steps, 16 permits); buy files each triplet through add. The
# implementation that bought one triplet per buy call made as many buy calls as add calls.
GOLDEN_BUYS = {"ocdsl": (91, 288), "odsl-rr": (30, 230), "odsl-pd": (68, 397), "pp": (30, 16)}


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_BUYS))
def test_golden_grid_run_buys_each_rounding_and_each_dual_occurrence_in_one_call(algorithm, monkeypatch):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    calls = dict.fromkeys(("buy", "add", "decisions"), 0)

    def counted(owner, name):
        method = getattr(owner, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)

        return call

    monkeypatch.setattr(OnlineLeaser, "buy", counted(OnlineLeaser, "buy"))
    monkeypatch.setattr(PurchaseLedger, "add", counted(PurchaseLedger, "add"))
    round_purchases, fallback, reps, serve, permits = (
        OcdslState.round_purchases, OcdslState.fallback, OcdslState.select_representatives, DualState.serve,
        PermitLeaser.serve_request,
    )

    def spied_round(state, doms, t):
        bought = round_purchases(state, doms, t)
        calls["decisions"] += bool(bought)
        return bought

    def spied_fallback(state, u, t):
        calls["decisions"] += 1
        return fallback(state, u, t)

    def spied_reps(state, s_t, d_t, t):
        rows = len(state.ledger)
        chosen = reps(state, s_t, d_t, t)
        calls["decisions"] += len(state.ledger) - rows
        return chosen

    def spied_serve(state, u, t):
        dual = state.dual
        serve(state, u, t)
        calls["decisions"] += state.dual != dual  # an uncovered occurrence raises its dual

    def spied_permits(state, nodes, t):
        calls["decisions"] += 1  # a step's permits, if any
        return permits(state, nodes, t)

    monkeypatch.setattr(OcdslState, "round_purchases", spied_round)
    monkeypatch.setattr(OcdslState, "fallback", spied_fallback)
    monkeypatch.setattr(OcdslState, "select_representatives", spied_reps)
    monkeypatch.setattr(DualState, "serve", spied_serve)
    monkeypatch.setattr(PermitLeaser, "serve_request", spied_permits)
    run_algorithm(algorithm, inst, 5)
    assert (calls["buy"], calls["add"]) == GOLDEN_BUYS[algorithm]
    assert calls["buy"] == calls["decisions"]


def test_golden_grid_primal_dual_run_looks_up_the_slots_once_per_request_time(monkeypatch):
    # the implementation that looked them up per occurrence made 120 calls, one per requested node
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    times, slots = [], LeaseCatalog.slots
    monkeypatch.setattr(LeaseCatalog, "slots", lambda catalog, t: times.append(t) or slots(catalog, t))
    run_algorithm("odsl-pd", inst, 5)
    assert times == list(inst.times) and len(times) == 30


# name -> (argv writing "out.csv", sha256 of that file), frozen like GOLDEN_6X6
GOLDEN_CLI = {
    "ocdsl-edge-ledger": (
        ["run", "--kind", "grid", "--params", "rows=6", "cols=6", "T=30", "k=4", "L=3",
         "--seed", "5", "--out", "records.csv", "--edge-ledger-out", "out.csv"],
        "f8b19f88d7e65ad874375ab86fab45bba78491384c90bc92f27482d0984c1b81",
    ),
    # a 30x30 grid, whose Phase 2 paths run many hops, in both ledgers
    "ocdsl-30x30-ledger": (
        ["run", "--kind", "grid", "--params", "rows=30", "cols=30", "T=40", "k=4", "L=3",
         "--seed", "0", "--out", "records.csv", "--ledger-out", "out.csv"],
        "7a7468730a01bfc4dd88e970e87825735e78cc631603eb63d17dabee9880d6c7",
    ),
    "ocdsl-30x30-edge-ledger": (
        ["run", "--kind", "grid", "--params", "rows=30", "cols=30", "T=40", "k=4", "L=3",
         "--seed", "0", "--out", "records.csv", "--edge-ledger-out", "out.csv"],
        "84748ca075c32eeecfd0e50396646b0691890c8a948b7c197ab49be91d6f4d3b",
    ),
    "pp": (
        ["pp", "--rainy", "0,1,2,3,5,8,13,21,34,55,89", "--leases", "1:1,4:2,16:5",
         "--out", "out.csv"],
        "cfa3788318a55e784c30e627cbe3005f4e2038c8e4b7995ee7e5f86eaa164993",
    ),
    "ocdsl-records-oracle": (
        ["run", "--kind", "star", "--params", "n=5", "T=3", "k=2", "L=2",
         "--trials", "3", "--seed", "2", "--oracle", "--out", "out.csv"],
        "2590d0b38810ef4f77713a7da6ea52ff0a8d99a9bfa3a9e24b01a921a80cad08",
    ),
}


# sha256 of `run --dump-tree` stdout for ocdsl on the GOLDEN_CLI grid, frozen from
# the tree walk that listed every leaf's ancestors
DUMP_TREE_DIGEST = "163bbfac30eb912760fb3623434fc5c1befef28c1d8c9788566d7d91fd53c789"


@pytest.mark.parametrize("algorithm", ["ocdsl", "odsl-pd"])
def test_cli_dump_tree_is_frozen(tmp_path, monkeypatch, capsys, algorithm):
    monkeypatch.chdir(tmp_path)
    assert main([
        "run", "--kind", "grid", "--params", "rows=6", "cols=6", "T=30", "k=4", "L=3",
        "--seed", "5", "--algorithm", algorithm, "--out", "records.csv", "--dump-tree",
    ]) == 0
    out = capsys.readouterr().out
    if algorithm == "ocdsl":
        assert hashlib.sha256(out.encode()).hexdigest() == DUMP_TREE_DIGEST
    else:
        assert out == ""  # only ocdsl embeds the graph in a tree


@pytest.mark.parametrize("argv, digest", GOLDEN_CLI.values(), ids=list(GOLDEN_CLI))
def test_fixed_cli_output_is_frozen(tmp_path, monkeypatch, argv, digest):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest() == digest

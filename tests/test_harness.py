import hashlib
import json
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fraction_operators, fractional_cost, spy_guards
from leaselab.cli import _ledger_csv, _read_ledger_csv, main
from leaselab.errors import (
    ConfigError,
    EmptyRequest,
    InfeasibleOutput,
    InstanceError,
    LeaselabError,
    NonMonotonicTime,
)
from leaselab.generators import burst_times, canonical_catalog, gen_instance
from leaselab.graphs import build_graph
from leaselab.harness import (
    ALGORITHMS,
    CSV_COLUMNS,
    VARIANTS,
    ExperimentConfig,
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
from leaselab.instances import Instance, PurchaseLedger, StepReport, make_instance
from leaselab.leases import LeaseCatalog, Triplet
from leaselab.oracle import offline_opt, offline_opt_ds
from leaselab.permits import pp_offline_opt


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
    assert [alg for alg in ALGORITHMS if verify_run(alg, inst, PurchaseLedger())] == []


def test_an_unknown_algorithm_is_refused():
    with pytest.raises(ConfigError, match=r"^unknown algorithm 'nope'$"):
        ExperimentConfig(algorithm="nope", instance=_path_ends_then_middle())


class IdleLeaser:
    """Buys nothing, so its ledger serves no request."""

    def __init__(self, inst: Instance, seed: int):
        self.ledger = PurchaseLedger()

    def serve_request(self, nodes, t: int) -> StepReport:
        return StepReport(t=t, requested=tuple(nodes), purchases=[], c1_increment=Fraction(0))


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


def test_report_rejects_broken_split():
    cfg = ExperimentConfig(
        algorithm="pp",
        trials=1,
        base_seed=0,
        generator=("star", {"n": 3, "T": 2}),
    )
    records = run_experiment(cfg)
    records[0].c1 += 1
    with pytest.raises(ValueError):
        report(records)


def test_records_csv_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        algorithm="odsl-pd",
        trials=2,
        base_seed=5,
        oracle=True,
        generator=("path", {"n": 4, "T": 2, "k": 2}),
    )
    records = run_experiment(cfg)
    out = tmp_path / "records.csv"
    for timing in (False, True):
        out.write_text(records_to_csv(records, timing), encoding="utf-8")
        again = read_records_csv(str(out))
        assert records_to_csv(again, timing) == records_to_csv(records, timing)


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
    # a step's purchases are the ledger rows of that step, in purchase order
    bought = [
        (node, lease, start, step.t, cost)
        for step in run.steps
        for node, lease, start, cost in step.purchases
    ]
    assert bought == run.ledger.rows()


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
    **{
        name: (["run", "--instance", "i.json"], {"i.json": json.dumps(data)})
        for name, data in BROKEN_INSTANCES.items()
    },
    "not-json": (["run", "--instance", "i.json"], {"i.json": "{not json"}),
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
    "records-broken-split": (
        ["report", "--records", "r.csv"], {"r.csv": HEADER + "\nx#0,ocdsl,1,3,1,1,,,3,1,2,1\n"}
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
    factory, variant = ALGORITHMS[algorithm]
    state = factory(inst, 0)
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
        if variant != "pp":  # the permit leaser has no graph to check against
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


# Fraction operator calls in one GOLDEN_6X6 run, counted at the implementation that built
# Phase 1's growth constants on every growth: a run may make at most half as many
@pytest.mark.parametrize("algorithm, before", [("odsl-rr", 989), ("ocdsl", 1135)])
def test_golden_grid_run_makes_at_most_half_the_fraction_operator_calls(algorithm, before, monkeypatch):
    inst = gen_instance("grid", GOLDEN_6X6_PARAMS, random.Random("golden:inst"))
    calls = count_fraction_operators(monkeypatch)
    run_algorithm(algorithm, inst, 5)
    assert len(calls) <= before // 2


# name -> (argv writing "out.csv", sha256 of that file), frozen like GOLDEN_6X6
GOLDEN_CLI = {
    "ocdsl-edge-ledger": (
        ["run", "--kind", "grid", "--params", "rows=6", "cols=6", "T=30", "k=4", "L=3",
         "--seed", "5", "--out", "records.csv", "--edge-ledger-out", "out.csv"],
        "f8b19f88d7e65ad874375ab86fab45bba78491384c90bc92f27482d0984c1b81",
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

import json
import os
import resource
import subprocess
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest
from conftest import symfunc
from test_acceptance import SHUFFLE_CONFIGS

from shufflealg import braid as br
from shufflealg import cli
from shufflealg import sweep as sw
from shufflealg import verify as vf


def test_run_suite_names(dom):
    rep = vf.run_suite("relations", dom)
    assert rep["suite"] == "relations" and not rep["failures"]
    with pytest.raises(ValueError):
        vf.run_suite("bogus", dom)


def test_braid_suite_passes(dom):
    # 35 presentation relations for k <= 3 and 12 creation-map cases
    rep = vf.run_suite("braid", dom)
    assert rep["suite"] == "braid" and rep["cases"] == 47 and rep["failures"] == []


def test_suite_report_shape(dom):
    rep = vf.trains_suite(dom, cases=10)
    assert set(rep) == {"suite", "cases", "failures"}
    assert rep["cases"] == 10


def test_verify_shuffle_smallest(dom):
    rep = vf.verify_shuffle(vf.JobConfig(m1=1, n1=1, g=1))
    assert rep["ok"] and rep["rhs_method"] == "coloring_dp"
    assert rep["results"][0]["alpha"] == [1]
    assert "mode" not in rep


def test_verify_shuffle_budget_skip(monkeypatch):
    # 4! words per path fit; times the 3 (2,4)-Dyck paths they do not, so the triple is
    # refused before anything runs
    monkeypatch.setattr(vf, "SHUFFLE_BUDGET", 24)
    with pytest.raises(ResourceWarning, match=r"^4! standard words per Dyck path times the "
                                              r"\(2,4\)-Dyck paths exceed budget 24$"):
        vf.verify_shuffle(vf.JobConfig(m1=1, n1=2, g=2))


def test_verify_shuffle_budget_prices_dyck_paths(monkeypatch):
    # 55 (4,8)-Dyck paths times 8! standard words = 2,217,600 fit the budget;
    # (1,2,5) is still refused: 273 (5,10)-Dyck paths times 10! = 990,662,400
    monkeypatch.setattr(vf, "SHUFFLE_BUDGET", 50_000_000)
    rep = vf.verify_shuffle(vf.JobConfig(m1=1, n1=2, g=4, alpha=(4,)))
    assert rep["ok"] and set(rep) == {"m1", "n1", "g", "ok", "results", "rhs_method"}
    with pytest.raises(ResourceWarning, match="budget 50000000"):
        vf.verify_shuffle(vf.JobConfig(m1=1, n1=2, g=5))


def test_verify_shuffle_refuses_a_factorial_over_the_budget(monkeypatch):
    # 11! = 39,916,800 words per path fit the budget, so (1,1,11) is priced by its paths
    # and refused; 12! does not, so g n1 >= 12 is refused before any path is counted.
    # No refused triple lists its compositions
    def no_work(*args, **kwargs):
        raise AssertionError("listed compositions or counted paths past the budget")
    monkeypatch.setattr(vf, "compositions_of", no_work)
    with pytest.raises(ResourceWarning, match=r"^11! standard words per Dyck path times"):
        vf.verify_shuffle(vf.JobConfig(m1=1, n1=1, g=11))
    monkeypatch.setattr(vf.cb, "dyck_path_count", no_work)
    for m1, n1, g, alpha in ((1, 1, 12, None), (1, 2, 6, None), (1, 1, 100000, (100000,))):
        with pytest.raises(ResourceWarning, match=f"^{n1 * g}! standard words per Dyck path"):
            vf.verify_shuffle(vf.JobConfig(m1=m1, n1=n1, g=g, alpha=alpha))


def test_verify_shuffle_bad_config():
    with pytest.raises(ValueError):
        vf.JobConfig(m1=2, n1=4, g=1)
    for m1, n1, g in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            vf.JobConfig(m1=m1, n1=n1, g=g)


@pytest.mark.parametrize("alpha", [(1, 2), (3,), (), (0, 2), (-1, 3)])
def test_verify_shuffle_rejects_alpha_before_any_work(alpha, monkeypatch):
    # refused in the config, before the budget gate and before the tower or the DP runs
    def no_work(*args, **kwargs):
        raise AssertionError("ran work for a bad alpha")
    monkeypatch.setattr(vf.ac, "ActionTower", no_work)
    monkeypatch.setattr(vf.sw, "recursion_dp", no_work)
    for budget in (50_000_000, 1):   # the gate accepts (1,1,2), then refuses it
        monkeypatch.setattr(vf, "SHUFFLE_BUDGET", budget)
        with pytest.raises(ValueError, match="composition of g"):
            vf.verify_shuffle(vf.JobConfig(m1=1, n1=1, g=2, alpha=alpha))


def test_relations_suite_applies_each_suffix_once(dom, monkeypatch):
    # one generator application per distinct nonempty word suffix at each k, whatever
    # the basis size; every suffix is applied at least once, so equal totals mean
    # exactly once at each k
    suffixes = Counter()
    for k in range(4):
        words = {word for _, lhs, rhs in vf.vk.standard_relations(dom, k) for _, word in lhs + rhs}
        suffixes.update(s[0] for s in {word[i:] for word in words for i in range(len(word))})
    calls = Counter()
    apply_word = vf.vk.apply_word

    def counted(f, word):   # the checker applies one-letter words
        calls[word[0]] += 1
        return apply_word(f, word)

    monkeypatch.setattr(vf.vk, "apply_word", counted)
    rep = vf.relations_suite(dom, 3, 3)
    assert not rep["failures"] and calls == suffixes


def test_relations_suite_operator_counts(dom, monkeypatch):
    # z, ytilde and the suffix sharing keep T applications down
    calls = Counter()
    act_T = vf.vk.act_T

    def counted_T(f, i, inverse=False):
        calls["T"] += 1
        return act_T(f, i, inverse)

    monkeypatch.setattr(vf.vk, "act_T", counted_T)
    rep = vf.relations_suite(dom, 3, 3)
    assert rep["cases"] == 100 and not rep["failures"]
    assert calls["T"] <= 9587


def _counted_braid_builds(monkeypatch):
    """Counter of braid_of_coloring calls by (events, key, h), events those of the last
    transition tables built."""
    builds = Counter()
    cell = []
    transitions, braid_of_coloring = sw.transitions, br.braid_of_coloring

    def tables(events, *args):
        cell[:] = [tuple(events)]
        return transitions(events, *args)

    def build(m1, n1, key, h):
        builds[(*cell, key, h)] += 1
        return braid_of_coloring(m1, n1, key, h)

    monkeypatch.setattr(sw, "transitions", tables)
    monkeypatch.setattr(br, "braid_of_coloring", build)
    return builds


def test_braid_transition_suite_builds_each_braid_once(dom, monkeypatch):
    builds = _counted_braid_builds(monkeypatch)

    def no_dp(*args, **kwargs):
        raise AssertionError("the suite reads transition tables only, never DP values")

    monkeypatch.setattr(sw, "recursion_dp", no_dp)
    monkeypatch.setattr(sw, "dp_strata", no_dp)
    rep = vf.braid_transition_suite(dom, total_max=7)
    assert rep["cases"] == 485 and not rep["failures"]
    assert builds and max(builds.values()) == 1


def test_braid_formula_suite_builds_each_table_once(dom, monkeypatch):
    # the suite reads each stratum as the DP yields it, so no second pass over keys
    built = Counter()
    transitions = sw.transitions

    def tables(events, *args):
        built[tuple(events)] += 1
        return transitions(events, *args)

    monkeypatch.setattr(sw, "transitions", tables)
    rep = vf.braid_formula_suite(dom, total_max=5)
    assert rep["cases"] == 79 and not rep["failures"]
    assert len(built) == 10 and max(built.values()) == 1


def _transition_reads(dom, m, n):
    """{failure id: {(key, h), ...}} of the braids each transition of the suite at (m, n) reads."""
    g = gcd(m, n)
    m1, n1 = m // g, n // g
    events = sw.dp_events(m, n)
    reads = {}
    for s, step in enumerate(sw.transitions(events)):
        h_src = br.safe_height(*sw.stratum_bounds(m, n, events, s), m1, n1)
        h_dst = br.safe_height(*sw.stratum_bounds(m, n, events, s + 1), m1, n1)
        px, py = events[s]
        for src, out in step.items():
            for kind, dst, _ in out:
                ident = f"rule{kind}({m},{n})@{s}:{dst}"
                if kind == "keep" or ident in reads:
                    continue
                preds = [src]
                if kind in ("B", "E"):  # dst itself and dst split at the event point
                    idx = next(i for i, (x, y) in enumerate(dst) if x < px and py < y)
                    x, y = dst[idx]
                    preds = [dst, dst[:idx] + ((x, py), (px, y)) + dst[idx + 1:]]
                reads[ident] = {(dst, h_dst)} | {(key, h_src) for key in preds}
    return reads


def test_braid_transition_suite_reports_every_reader_of_a_wrong_braid(dom, monkeypatch):
    # the braid read most often at (3, 3), made wrong by a y_1; the suite up to m + n = 6
    # also reads braids of slope (1, 1) at (1, 1) and (2, 2)
    reads = {ident: keys for m in (1, 2, 3) for ident, keys in _transition_reads(dom, m, m).items()}
    readers = Counter(read for ident, keys in reads.items() if "(3,3)" in ident for read in keys)
    target, _ = readers.most_common(1)[0]
    want = sorted(ident for ident, keys in reads.items() if target in keys)
    braid_of_coloring = br.braid_of_coloring

    def build(m1, n1, key, h):
        word, cfg0, cfg1 = braid_of_coloring(m1, n1, key, h)
        if (m1, n1, key, h) == (1, 1, *target):
            word = br.BraidWord(word.k, (("y", 1),) + word.gens)
        return word, cfg0, cfg1

    monkeypatch.setattr(br, "braid_of_coloring", build)
    rep = vf.braid_transition_suite(dom, total_max=6)
    assert len(want) >= 3 and sorted(f["id"] for f in rep["failures"]) == want


def _results_or_refusal(cfg):
    """The report's results without their timings, or the refusal of an over-budget triple."""
    try:
        report = vf.verify_shuffle(cfg)
    except ResourceWarning as exc:
        return str(exc)
    return [{k: v for k, v in r.items() if k != "seconds"} for r in report["results"]]


@pytest.mark.parametrize("m1,n1,g", SHUFFLE_CONFIGS + [(1, 2, 4), (2, 3, 3)])
def test_verify_shuffle_one_alpha_matches_the_full_run(m1, n1, g):
    # --alpha runs only the DP cone of its c_alpha and reports what the full run does
    # for that alpha; (2, 3, 3) is over the budget, so every run refuses it alike
    full = _results_or_refusal(vf.JobConfig(m1=m1, n1=n1, g=g))
    for alpha in vf.compositions_of(g):
        one = _results_or_refusal(vf.JobConfig(m1=m1, n1=n1, g=g, alpha=alpha))
        if isinstance(full, str):
            assert one == full and "exceed budget" in one
        else:
            assert one == [r for r in full if r["alpha"] == list(alpha)] and one


def _run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cli_paths(capsys):
    code, data = _run_cli(["paths", "enum", "--m", "2", "--n", "2"], capsys)
    assert code == 0 and data["count"] == 2
    code, data = _run_cli(["paths", "stats", "--path", "1100011001010000"], capsys)
    assert code == 0 and data["area"] == 6 and data["maxtdinv"] == 9
    code, data = _run_cli(["paths", "chi", "--path", "110"], capsys)
    assert code == 0
    assert data["chi"]["terms"] == [{"partition": [1, 1], "coef": "1"}]


def test_cli_paths_enum_lists_a_path_deeper_than_the_recursion_limit(capsys):
    # one path of 1,501 steps, within PATH_BUDGET, walked without a frame per step
    code, data = _run_cli(["paths", "enum", "--m", "1500", "--n", "1"], capsys)
    assert code == 0 and data["count"] == 1 and data["paths"] == ["1" + "0" * 1500]


def test_cli_actions(capsys):
    code, data = _run_cli(["actions", "build", "--m", "2", "--n", "3"], capsys)
    assert code == 0
    assert data == {"m": 2, "n": 3, "dplus_on_1": "(t)*m[]*y1^3 + (-1)*m[1]*y1^2"}
    code, data = _run_cli(["actions", "lhs", "--m1", "1", "--n1", "1",
                           "--g", "2", "--alpha", "2"], capsys)
    assert code == 0
    assert data["lhs"]["terms"] == [{"partition": [1, 1], "coef": "t"}]


@pytest.mark.parametrize("m,n", [(2, 4), (0, 0), (-1, 2), (1, -1), (0, 2)])
def test_cli_actions_build_refuses_bad_slopes(capsys, m, n):
    code, data = _run_cli(["actions", "build", "--m", str(m), "--n", str(n)], capsys)
    assert code == 2
    assert data == {"error": f"ValueError: need m, n >= 0 coprime and not both zero, "
                             f"got ({m}, {n})"}


@pytest.mark.parametrize("m,n", [(2, 4), (-1, 1)])
def test_cli_one_slope_check(capsys, m, n):
    # build_action, lhs_compositional and JobConfig refuse a bad slope with one message;
    # JobConfig refuses a negative m1 by its own "at least 1" check first
    argvs = [["actions", "build", "--m", str(m), "--n", str(n)],
             ["actions", "lhs", "--m1", str(m), "--n1", str(n), "--g", "1", "--alpha", "1"]]
    if m >= 0:
        argvs.append(["verify", "shuffle", "--m1", str(m), "--n1", str(n), "--g", "1"])
    for argv in argvs:
        code, data = _run_cli(argv, capsys)
        assert code == 2, argv
        assert data == {"error": f"ValueError: need m, n >= 0 coprime and not both zero, "
                                 f"got ({m}, {n})"}, argv


def test_cli_sweep(capsys, tmp_path):
    code, data = _run_cli(["sweep", "path", "--path", "10"], capsys)
    assert code == 0 and data["value"]["terms"] == [{"partition": [1], "coef": "1"}]
    code, data = _run_cli(["sweep", "dp", "--m", "2", "--n", "2",
                           "--emit-colorings"], capsys)
    assert code == 0 and data["colorings"] == 5


def test_cli_braid(capsys, tmp_path):
    code, data = _run_cli(["braid", "eval", "--word", "z1", "--k", "1"], capsys)
    assert code == 0 and data["value"] == "(-1)*m[]*y1"
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": [[0, 1]]}))
    code, data = _run_cli(["braid", "of-coloring", "--m", "1", "--n", "1",
                           "--coloring", str(coloring)], capsys)
    assert code == 0 and data["braid"] == "1"
    code, data = _run_cli(["braid", "eval", "--word", "y1", "--k", "-1"], capsys)
    assert code == 2 and data["error"].startswith("ValueError: --k must be")


def test_cli_verify_suite(capsys):
    code, data = _run_cli(["verify", "suite", "trains"], capsys)
    assert code == 0 and data["failures"] == []


def test_cli_verify_shuffle_exit_status(capsys):
    code, data = _run_cli(["verify", "shuffle", "--m1", "2", "--n1", "1", "--g", "1"], capsys)
    assert code == 0 and data["ok"]


def test_cli_verify_shuffle_reports_a_perturbed_side(monkeypatch, capsys):
    # the DP side plus t m_(1^4) - u m_(4): one coefficient changed and one added
    assemble = sw.assemble_composition

    def perturbed(m1, n1, g, alpha, dp, dom):
        rhs = assemble(m1, n1, g, alpha, dp, dom)
        n = g * n1
        return rhs + symfunc(dom, rhs.cap, [((1,) * n, dom.t), ((n,), -dom.u)])

    monkeypatch.setattr(sw, "assemble_composition", perturbed)
    code, data = _run_cli(["verify", "shuffle", "--m1", "1", "--n1", "2", "--g", "2",
                           "--alpha", "2"], capsys)
    assert code == 1 and data["ok"] is False
    (entry,) = data["results"]
    del entry["seconds"]
    lhs_1111, rhs_1111 = "u^2*t + t^2 + 3*t", "u^2*t + t^2 + 4*t"
    assert entry == {
        "alpha": [2], "equal": False, "integer_q_degree": True,
        "lhs": {"basis": "m", "cap": 4, "terms": [
            {"coef": lhs_1111, "partition": [1, 1, 1, 1]},
            {"coef": "t", "partition": [2, 1, 1]}]},
        "rhs": {"basis": "m", "cap": 4, "terms": [
            {"coef": rhs_1111, "partition": [1, 1, 1, 1]},
            {"coef": "t", "partition": [2, 1, 1]},
            {"coef": "-u", "partition": [4]}]},
        "diff": [{"lhs": lhs_1111, "partition": [1, 1, 1, 1], "rhs": rhs_1111},
                 {"lhs": "0", "partition": [4], "rhs": "-u"}]}


def _missing_coloring(tmp_path):
    return ["braid", "of-coloring", "--m", "1", "--n", "1",
            "--coloring", str(tmp_path / "missing.json")]


def _coloring_without_intervals(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"stratum": 0}))
    return ["braid", "of-coloring", "--m", "1", "--n", "1", "--coloring", str(coloring)]


def _stratum_out_of_range(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": [[0, 1]], "stratum": 99}))
    return ["braid", "of-coloring", "--m", "1", "--n", "1", "--coloring", str(coloring)]


def _interval_outside_cell(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": [[0, 5]]}))
    return ["braid", "of-coloring", "--m", "1", "--n", "1", "--coloring", str(coloring)]


def _intervals_not_a_list(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": 3}))
    return ["braid", "of-coloring", "--m", "1", "--n", "1", "--coloring", str(coloring)]


def _coloring_negative_m(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": []}))
    return ["braid", "of-coloring", "--m", "-1", "--n", "2", "--coloring", str(coloring)]


def _coloring_zero_m(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": []}))
    return ["braid", "of-coloring", "--m", "0", "--n", "2", "--coloring", str(coloring)]


def _coloring_empty_at_height(tmp_path):
    coloring = tmp_path / "c.json"
    coloring.write_text(json.dumps({"intervals": [[0, 1], [0, 2]], "stratum": 0}))
    return ["braid", "of-coloring", "--m", "2", "--n", "3", "--coloring", str(coloring)]


def _relation_sides_in_different_spaces(tmp_path):
    return ["verify", "relation", "--lhs", "d+", "--rhs", "d-", "--k", "2"]


def _alpha_empty_part(tmp_path):
    return ["verify", "shuffle", "--m1", "1", "--n1", "2", "--g", "3", "--alpha", "1,,1"]


def _out_in_missing_dir(tmp_path):
    return ["--out", str(tmp_path / "no" / "such" / "dir.json"),
            "verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "1"]


def _zero_m1(tmp_path):
    return ["verify", "shuffle", "--m1", "0", "--n1", "1", "--g", "1"]


def _mode_option(tmp_path):
    return ["--mode", "fast", "verify", "suite", "trains"]


def _jobs_option(tmp_path):
    return ["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "2", "--jobs", "2"]


def _m1_not_an_int(tmp_path):
    return ["verify", "shuffle", "--m1", "x", "--n1", "1", "--g", "1"]


def _dp_zero_m(tmp_path):
    return ["sweep", "dp", "--m", "0", "--n", "3"]


def _dp_negative_m(tmp_path):
    return ["sweep", "dp", "--m", "-2", "--n", "3"]


def _dp_zero_n(tmp_path):
    return ["sweep", "dp", "--m", "1", "--n", "0"]


def _cap_option(tmp_path):
    return ["braid", "eval", "--word", "y1", "--k", "1", "--cap", "6"]


def _shuffle_cap_option(tmp_path):
    return ["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "2", "--cap", "4"]


def _negative_k(tmp_path):
    return ["braid", "eval", "--word", "y1", "--k", "-1"]


def _relation_negative_degree(tmp_path):
    return ["verify", "relation", "--lhs", "y1", "--rhs", "y1", "--k", "1", "--degree", "-1"]


def _relation_negative_k(tmp_path):
    return ["verify", "relation", "--lhs", "", "--rhs", "", "--k", "-2"]


def _alpha_not_a_composition(tmp_path):
    return ["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "2", "--alpha", "1,2"]


def _empty_path(tmp_path):
    return ["paths", "stats", "--path", ""]


def _path_not_binary(tmp_path):
    return ["sweep", "path", "--path", "1x0"]


def _chi_over_word_budget(tmp_path):
    return ["paths", "chi", "--path", "1" * 10 + "0" * 10]


def _braid_word_with_d_letters(tmp_path):
    return ["braid", "eval", "--word", "d- d+", "--k", "1"]


def _braid_word_z_out_of_range(tmp_path):
    return ["braid", "eval", "--word", "z3", "--k", "2"]


def _braid_word_ytilde_out_of_range(tmp_path):
    return ["braid", "eval", "--word", "ytilde0", "--k", "2"]


def _lhs_alpha_not_a_composition(tmp_path):
    return ["actions", "lhs", "--m1", "1", "--n1", "1", "--g", "2", "--alpha", "0,2"]


def _relation_exponent_past_packing(tmp_path):
    # t^(2^32) would pack to the key of u
    return ["verify", "relation", "--lhs", "t^4294967296 T1", "--rhs", "u T1", "--k", "2"]


def _shuffle_alpha_empty(tmp_path):
    return ["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "1", "--alpha", ""]


def _enum_alpha_empty(tmp_path):
    return ["paths", "enum", "--m", "2", "--n", "4", "--alpha", ""]


def _lhs_negative_slope(tmp_path):
    # coprime, but refused by the slope check before any handle is built
    return ["actions", "lhs", "--m1", "-1", "--n1", "1", "--g", "1", "--alpha", "1"]


def _shuffle_over_budget(tmp_path):
    # 10! words times 273 (5,10)-Dyck paths: refused with status 2, not a failed verification
    return ["verify", "shuffle", "--m1", "1", "--n1", "2", "--g", "5"]


def _relation_over_spanning_budget(tmp_path):
    # refused once one element past the budget is built
    return ["verify", "relation", "--lhs", "T1", "--rhs", "T1", "--k", "2", "--degree", "99999"]


@pytest.mark.parametrize("argv", [_missing_coloring, _coloring_without_intervals,
                                  _stratum_out_of_range, _interval_outside_cell,
                                  _intervals_not_a_list, _out_in_missing_dir, _zero_m1,
                                  _mode_option, _jobs_option, _cap_option,
                                  _shuffle_cap_option, _m1_not_an_int, _dp_zero_m,
                                  _dp_negative_m, _dp_zero_n, _negative_k, _empty_path,
                                  _path_not_binary, _relation_negative_degree,
                                  _relation_negative_k, _alpha_not_a_composition,
                                  _coloring_negative_m, _coloring_zero_m,
                                  _alpha_empty_part, _relation_sides_in_different_spaces,
                                  _chi_over_word_budget, _braid_word_with_d_letters,
                                  _braid_word_z_out_of_range, _braid_word_ytilde_out_of_range,
                                  _lhs_negative_slope, _lhs_alpha_not_a_composition,
                                  _coloring_empty_at_height, _relation_exponent_past_packing,
                                  _shuffle_alpha_empty, _enum_alpha_empty,
                                  _relation_over_spanning_budget, _shuffle_over_budget])
def test_cli_bad_input_is_json_error(argv, tmp_path, capsys):
    code = cli.main(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error
    if argv is _braid_word_with_d_letters:   # refused by the alphabet, not evaluated
        assert error == "ValueError: unknown braid generator d+"
    if argv is _braid_word_z_out_of_range:
        assert error == "ValueError: z_3 is not defined on V_2"
    if argv is _braid_word_ytilde_out_of_range:
        assert error == "ValueError: ytilde_0 is not defined on V_2"
    if argv is _coloring_empty_at_height:
        assert error == "DegenerateGeometry: interval is empty at this height"
    if argv is _lhs_alpha_not_a_composition:
        assert error == "ValueError: alpha must be a composition of g = 2, got [0, 2]"
    if argv in (_shuffle_alpha_empty, _enum_alpha_empty):
        assert error == "ValueError: --alpha must be comma-separated integers, got ''"
    if argv is _relation_over_spanning_budget:
        assert error == ("ResourceWarning: V_2 has over 1000 basis elements of degree at "
                         "most 99999, the budget of a relation check")
    if argv is _shuffle_over_budget:
        assert error == ("ResourceWarning: 10! standard words per Dyck path times the "
                         "(5,10)-Dyck paths exceed budget 50000000")
    if argv is _relation_exponent_past_packing:
        assert error == ("ValueError: bad scalar token 't^4294967296': the absolute values "
                         "of its exponents must add up to less than 2^20")


@pytest.mark.parametrize("option, argv", [("--degree", _relation_negative_degree),
                                          ("--k", _relation_negative_k)])
def test_cli_relation_names_a_negative_option(option, argv, tmp_path, capsys):
    code, data = _run_cli(argv(tmp_path), capsys)
    assert code == 2 and data["error"].startswith(f"ValueError: {option} must be at least 0")


@pytest.mark.parametrize("cmd", [["paths", "enum", "--m", "2", "--n", "2"],
                                 ["actions", "lhs", "--m1", "1", "--n1", "1", "--g", "2"],
                                 ["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "2"]])
def test_cli_bad_alpha_names_the_option(cmd, capsys):
    code, data = _run_cli([*cmd, "--alpha", "1,,1"], capsys)
    assert code == 2
    assert data["error"] == "ValueError: --alpha must be comma-separated integers, got '1,,1'"


@pytest.mark.parametrize("cmd", [["paths", "stats"], ["paths", "chi"], ["sweep", "path"]])
@pytest.mark.parametrize("path", ["", "1x0", "1 0", "102", "1", "11", "0", "00"])
def test_cli_bad_path_names_the_option(cmd, path, capsys):
    code, data = _run_cli([*cmd, "--path", path], capsys)
    assert code == 2 and data["error"].startswith("ValueError: --path must be")


@pytest.mark.parametrize("argv", [["-h"], ["verify", "shuffle", "--help"]])
def test_cli_help_still_prints(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out.startswith("usage: shufflealg")
    assert captured.err == ""


def test_cli_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["--out", str(out), "verify", "shuffle",
                     "--m1", "1", "--n1", "1", "--g", "1"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["ok"]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("word", ["T1", "z1", "ytilde1"])
def test_cli_relation_refuses_a_huge_k_before_allocating(word):
    # at degree 0 the spanning set has one element, but its exponents are k long, and so
    # are the trains of z1 and ytilde1; under a 1 GiB address space an allocation that
    # size fails at once instead of filling memory
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "shufflealg.cli", "verify", "relation",
                           "--lhs", word, "--rhs", word, "--k", "1000000000", "--degree", "0"],
                          capture_output=True, env=env, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 2 and proc.stderr == b""
    assert json.loads(proc.stdout) == {"error": "ResourceWarning: V_1000000000 has over 150 "
                                                "strands, the budget of a relation check"}


@pytest.mark.parametrize("argv, error", [
    (["braid", "eval", "--word", "T1", "--k", "1000000000"],
     "ResourceWarning: V_1000000000 has over 150 strands, the budget of d_+^k(1)"),
    (["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "24"],
     "ResourceWarning: 24! standard words per Dyck path times the (24,24)-Dyck paths "
     "exceed budget 50000000"),
    (["verify", "shuffle", "--m1", "1", "--n1", "1", "--g", "100000", "--alpha", "100000"],
     "ResourceWarning: 100000! standard words per Dyck path times the (100000,100000)-Dyck paths "
     "exceed budget 50000000"),
    (["paths", "enum", "--m", "30", "--n", "30"],
     "ResourceWarning: 3814986502092304 Dyck paths of 60 steps exceed budget 5000000 steps")])
def test_cli_refuses_huge_braid_and_shuffle_input_before_allocating(argv, error):
    # d_+^k(1) takes about k^3 work, verify shuffle would list 2^(g-1) compositions and
    # count paths by g^2 steps, and paths enum would list Catalan(30) paths; under a 1 GiB
    # address space each is refused first
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "shufflealg.cli", *argv], capture_output=True,
                          env=env, timeout=120, preexec_fn=_limit_address_space)
    assert proc.returncode == 2 and proc.stderr == b""
    assert json.loads(proc.stdout) == {"error": error}


def test_cli_braid_eval_bounds_k(capsys):
    code, data = _run_cli(["braid", "eval", "--word", "ytilde100", "--k", "150"], capsys)
    assert code == 0 and data["k"] == 150 and data["value"].startswith("(-u^100)*m[]*y1*y2*")
    code, data = _run_cli(["braid", "eval", "--word", "ytilde100", "--k", "151"], capsys)
    assert code == 2
    assert data == {"error": "ResourceWarning: V_151 has over 150 strands, the budget of d_+^k(1)"}


@pytest.mark.parametrize("argv", [["paths", "enum", "--m", "10", "--n", "6"],
                                  ["paths", "enum", "--m", "2", "--n", "2"]])
def test_cli_closed_stdout_is_quiet(argv):
    # stdout is a pipe whose read end is closed before the CLI writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-m", "shufflealg.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2 and proc.stderr == b""


def test_cli_relation_refuses_zero_to_a_negative_power(capsys):
    code, data = _run_cli(["verify", "relation", "--lhs", "0^-1 d- d+", "--rhs", "d- d+",
                           "--k", "1"], capsys)
    assert code == 2 and data == {"error": "ValueError: bad scalar token '0^-1'"}


@pytest.mark.parametrize("token", ["\u0663", "q^1_0"])
def test_cli_relation_refuses_a_number_that_is_not_ascii_digits(token, capsys):
    # an Arabic-Indic 3 and an underscore-grouped exponent are refused, not read as 3 and 10
    code, data = _run_cli(["verify", "relation", "--lhs", f"{token} T1", "--rhs", "T1",
                           "--k", "2"], capsys)
    assert code == 2 and data == {"error": f"ValueError: bad scalar token {token!r}"}


def test_cli_relation_witness_over_an_integer_denominator(capsys):
    code, data = _run_cli(["verify", "relation", "--lhs", "2^-1 d- d+", "--rhs", "d- d+",
                           "--k", "1", "--degree", "1"], capsys)
    assert code == 1 and not data["passed"] and data["cases"] == 1
    assert data["witness"] == ["(1)*m[]", "(-u^2 / 2)*m[]*y1", "(-u^2)*m[]*y1"]

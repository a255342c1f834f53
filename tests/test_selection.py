"""Data-driven choice of the number of shifts M."""

import json

import numpy as np
import pytest

from oracles import criterion_curves_reference
from orthosample import experiments, selection
from orthosample.cli import EXIT_OK, main
from orthosample.htests import (goodness_of_fit_block, goodness_of_fit_test, portmanteau_block,
                                portmanteau_test)
from orthosample.models import MODEL_REGISTRY, ModelSpec, generate, generate_batch
from orthosample.selection import (DEFAULT_P, DEFAULT_SEARCH_SET, _feasible, _select_block,
                                   select_M)
from orthosample.spectral import (DegenerateDataError, ShiftRangeError, ar_spectral_density, dft,
                                  lag_weight, shift_runs, weighted_average,
                                  weighted_average_run)


def naive_criterion(x, M, p):
    """Literal double-loop evaluation of the average squared error."""
    grid = dft(x)
    T = grid.T
    phi = lag_weight(1)
    total = 0.0
    for r in range(1, T // p + 1):
        num = T * abs(weighted_average(grid, phi, r)) ** 2
        vhat = T / M * sum(
            abs(weighted_average(grid, phi, s)) ** 2 for s in range(r + 1, r + M + 1)
        )
        total += (num / vhat - 1.0) ** 2
    return p / T * total


class TestCriterion:
    """C(M) at one M: the curve ``select_M`` gives over the set {M}."""

    def test_matches_naive_form(self, rng):
        x = rng.standard_normal(80)
        for M, p in [(3, 4), (8, 4), (5, 8)]:
            got = select_M(dft(x), lag_weight(1), (M,), p).criterion_curve[M]
            assert got == pytest.approx(naive_criterion(x, M, p), rel=1e-10)

    def test_nonnegative_and_scale_invariant(self, rng):
        x = rng.standard_normal(120)
        c1 = select_M(dft(x), lag_weight(1), (6,), 4).criterion_curve[6]
        c2 = select_M(dft(3.7 * x), lag_weight(1), (6,), 4).criterion_curve[6]
        assert c1 >= 0
        assert c2 == pytest.approx(c1, rel=1e-10)

    def test_window_preconditions(self, rng):
        grid = dft(rng.standard_normal(60))
        with pytest.raises(ShiftRangeError):
            select_M(grid, lag_weight(1), (20,), 4)  # 15 + 20 >= 30
        with pytest.raises(ShiftRangeError):
            select_M(grid, lag_weight(1), (5,), 1)  # p < 2

    def test_degenerate_series_raises(self):
        x = np.ones(80)
        with pytest.raises(DegenerateDataError):
            select_M(dft(x), lag_weight(1), (4,), 4)


class TestCurveBitsMatchReference:
    """The criterion curves are, bit for bit, those of a second copy of the
    criterion's arithmetic that gathers its windows by fancy indexes
    (``oracles.criterion_curves_reference``)."""

    @pytest.mark.parametrize("p", [3, 4, 8])
    @pytest.mark.parametrize("T", [128, 511, 512, 1000, 2048])
    def test_curves_match_reference(self, T, p):
        specs = [MODEL_REGISTRY["ar_g_0.6"], MODEL_REGISTRY["ar_chi_0.9"], MODEL_REGISTRY["x5"]]
        block = np.stack([generate(spec, T, seed=[38, T, i]).series
                          for i, spec in enumerate(specs)])
        coeffs = np.stack([dft(x).coeffs for x in block])
        search_set = (30, 3, 17, 10, 3, 25)
        members, _ = _feasible(T, search_set, p)
        runs = shift_runs(coeffs, lag_weight(1).on_grid(T)[None], T // p + max(members))[:, 0]
        _, curves, uniq = _select_block(runs, T, members, p)
        want = criterion_curves_reference(runs, T, uniq, p)
        assert np.array_equal(curves.view(np.int64), want.view(np.int64))
        single = select_M(dft(block[0]), lag_weight(1), search_set, p).criterion_curve
        assert [single[M] for M in uniq] == want[0].tolist()


class TestSelectM:
    def test_singleton_set(self, rng):
        grid = dft(rng.standard_normal(100))
        sel = select_M(grid, lag_weight(1), [7], 4)
        assert sel.chosen_M == 7
        assert set(sel.criterion_curve) == {7}

    def test_chooses_curve_minimum_with_smallest_tie(self, rng):
        grid = dft(rng.standard_normal(200))
        sel = select_M(grid, lag_weight(1), range(5, 21), 4)
        curve = sel.criterion_curve
        best = min(curve.values())
        assert curve[sel.chosen_M] == best
        assert sel.chosen_M == min(m for m, v in curve.items() if v == best)

    def test_curve_matches_standalone_criterion(self, rng):
        grid = dft(rng.standard_normal(150))
        sel = select_M(grid, lag_weight(1), [4, 8, 12], 4)
        for M, val in sel.criterion_curve.items():
            assert val == pytest.approx(
                select_M(grid, lag_weight(1), (M,), 4).criterion_curve[M], rel=1e-12)

    def test_negation_invariance(self, rng):
        x = rng.standard_normal(160)
        s1 = select_M(dft(x), lag_weight(1), range(4, 15), 4)
        s2 = select_M(dft(-x), lag_weight(1), range(4, 15), 4)
        assert s1.chosen_M == s2.chosen_M

    def test_empty_set_rejected(self, rng):
        with pytest.raises(ShiftRangeError):
            select_M(dft(rng.standard_normal(100)), lag_weight(1), [], 4)


class TestFeasibleSet:
    def test_clipping_at_small_T(self):
        # T = 100, p = 4: windows need 25 + M < 50, so M <= 24
        feas = _feasible(100, range(10, 31), 4)[0]
        assert feas == tuple(range(10, 25))

    def test_full_set_at_large_T(self):
        assert _feasible(500, range(10, 31), 4)[0] == tuple(range(10, 31))

    def test_infeasible_raises(self):
        with pytest.raises(ShiftRangeError):
            _feasible(40, range(10, 31), 2)

    @pytest.mark.parametrize("p", [0, 1])
    def test_p_checked_before_use(self, p):
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            _feasible(200, range(10, 31), p)
        x = generate(MODEL_REGISTRY["normal"], 200, seed=5).series
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            portmanteau_test(x, p=p)


class TestRangeSearchSets:
    """A range passes the search-set rule without a per-member integer check:
    it keeps the members and the refusals of the same set as a tuple."""

    RANGES = [range(10, 31), range(1, 2), range(30, 9, -1), range(5, 40, 7), range(24, 25),
              range(10, 31, 3)]
    REFUSED = [range(0), range(5, 5), range(0, 10), range(-3, 4), range(3, -1, -1),
               range(30, 40)]

    @pytest.mark.parametrize("members", RANGES, ids=str)
    @pytest.mark.parametrize("T", [100, 512])
    def test_same_members_as_the_tuple(self, members, T):
        assert selection._search_set(members, 4.0) == selection._search_set(tuple(members), 4)
        assert _feasible(T, members, 4) == _feasible(T, tuple(members), 4)
        assert all(type(M) is int for M in _feasible(T, members, 4)[0])

    @pytest.mark.parametrize("members", REFUSED, ids=str)
    def test_same_refusals_as_the_tuple(self, members):
        errors = []
        for search_set in (members, tuple(members)):
            with pytest.raises(ShiftRangeError) as refused:
                _feasible(100, search_set, 4)
            errors.append(str(refused.value))
        assert errors[0] == errors[1]

    def test_p_rule_comes_first(self):
        for search_set in (range(0), ()):
            with pytest.raises(ShiftRangeError, match="^p must be >= 2$"):
                _feasible(100, search_set, 1)


class TestOneSearchSetPolicy:
    """Every M search keeps the feasible members of its set, as the CLI and
    the test kernels do; only a set with none raises."""

    @pytest.mark.parametrize("T", [100, 118, 120])
    def test_default_set_is_clipped_everywhere(self, T, tmp_path, capsys):
        x = generate(MODEL_REGISTRY["normal"], T, seed=[31, T]).series
        path = tmp_path / "x.csv"
        path.write_text("\n".join(repr(v) for v in x.tolist()) + "\n")
        assert main(["selectM", str(path)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        cli_curve = {int(m): v for m, v in printed["criterion_curve"].items()}

        grid, phi = dft(x), lag_weight(1)
        sel = select_M(grid, phi)
        feasible = _feasible(T, DEFAULT_SEARCH_SET, DEFAULT_P)[0]
        assert sel.search_set == feasible == tuple(cli_curve)
        assert sel.chosen_M == printed["chosen_M"] == portmanteau_test(x).tuning["M"]
        assert sel.criterion_curve == cli_curve
        assert {M: select_M(grid, phi, (M,)).criterion_curve[M] for M in feasible} == cli_curve
        run = weighted_average_run(grid, phi, T // 4 + max(feasible))
        chosen, curves, members = _select_block(run[None], T, feasible, DEFAULT_P)
        assert chosen[0] == sel.chosen_M
        assert dict(zip(members, curves[0].tolist())) == cli_curve

    def test_no_feasible_member_raises(self, rng):
        x = rng.standard_normal(100)
        grid, phi = dft(x), lag_weight(1)
        for call in [lambda: select_M(grid, phi, range(30, 40)),
                     lambda: select_M(grid, phi, (30,)),
                     lambda: portmanteau_block(np.stack([x, x]), search_set=range(30, 40), p=4),
                     lambda: select_M(dft(rng.standard_normal(60)), phi, (20,), 4)]:
            with pytest.raises(ShiftRangeError, match="no feasible M"):
                call()


class TestSearchSetRuleInBlocks:
    """Every block and single-series selection takes a raw search set and p
    (integral floats included) through the search-set rule."""

    @pytest.fixture(scope="class")
    def block(self):
        seeds = [[7, 0, r] for r in range(4)]
        return generate_batch(MODEL_REGISTRY["x5"], 100, seeds).series

    def test_blocks_and_selections_take_raw_sets(self, block):
        def g(w):
            return ar_spectral_density(w, [0.3], 1.0)

        calls = [lambda: portmanteau_block(block, L=3),
                 lambda: portmanteau_block(block, L=3, search_set=range(10, 25), p=4),
                 lambda: goodness_of_fit_block(block, g, L=3, search_set=(10.0, 12, 20), p=4.0),
                 lambda: select_M(dft(block[0]), lag_weight(1), range(10, 25), 4)]
        for call in calls:
            call()

    def test_block_selection_keeps_its_checks(self, block):
        # the rule still decides what fails, and which error comes first
        for search_set, p, match in [((10.9,), 1, "p must be >= 2"),
                                     ((10.9,), 4, "M=10.9 is not an integer"),
                                     ((), 4, "must be non-empty"),
                                     (range(30, 40), 4, "no feasible M")]:
            with pytest.raises(ShiftRangeError, match=match):
                portmanteau_block(block, L=3, search_set=search_set, p=p)
        runs = np.ones((2, 60), dtype=complex)
        # M = 25 is infeasible at T = 100, p = 4: the set is clipped to (10,)
        chosen, _, members = _select_block(runs, 100, *_feasible(100, (10, 25), 4))
        assert members == (10,) and chosen.tolist() == [10, 10]
        with pytest.raises(ShiftRangeError, match="p must be >= 2"):
            _feasible(100, (10,), 1)


class TestSearchSetRuleRunsOnce:
    """Each M search runs the search-set rule once.  The CLI's selectM runs
    it twice: the ``search_set`` key's rule refuses a bad --set as a config
    error, and ``select_M`` runs its own search."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []

        def counted(search_set, p, rule=selection._search_set):
            calls.append(1)
            return rule(search_set, p)

        for module in (selection, experiments):
            monkeypatch.setattr(module, "_search_set", counted)
        return calls

    def test_once_per_search(self, passes):
        T = 200
        block = generate_batch(MODEL_REGISTRY["ar_g_0.6"], T, [[41, r] for r in range(3)]).series
        x = block[0]

        def g(w):
            return ar_spectral_density(w, [0.6], 1.0)

        calls = {"select_M": lambda: select_M(dft(x), lag_weight(1)),
                 "portmanteau_test": lambda: portmanteau_test(x),
                 "portmanteau_block": lambda: portmanteau_block(block),
                 "goodness_of_fit_test": lambda: goodness_of_fit_test(x, g),
                 "goodness_of_fit_block": lambda: goodness_of_fit_block(block, g, p=4.0)}
        counts = {}
        for name, call in calls.items():
            passes.clear()
            call()
            counts[name] = len(passes)
        assert counts == dict.fromkeys(calls, 1)

    @pytest.mark.parametrize("extra", [[], ["--set", "10..15"]])
    def test_twice_for_select_m_verb(self, passes, tmp_path, capsys, extra):
        x = generate(MODEL_REGISTRY["normal"], 200, seed=43).series
        path = tmp_path / "x.csv"
        path.write_text("\n".join(repr(v) for v in x.tolist()) + "\n")
        assert main(["selectM", str(path)] + extra) == EXIT_OK
        assert len(passes) == 2


@pytest.mark.slow
class TestCurveShape:
    def test_u_shape_on_peaked_ar2(self):
        # sharp-spectrum AR(2): the averaged criterion curve rises at both
        # ends of the search range with an interior minimum
        spec = ModelSpec("ar", {"coeffs": (1.5, -0.75), "innovation": "normal"})
        feas = _feasible(200, range(2, 61), 4)[0]
        curves = []
        for r in range(100):
            grid = dft(generate(spec, 200, seed=[33, r]).series)
            sel = select_M(grid, lag_weight(1), feas, 4)
            curves.append([sel.criterion_curve[m] for m in feas])
        mean_curve = np.asarray(curves).mean(axis=0)
        interior_min = int(np.argmin(mean_curve))
        assert 0 < interior_min < len(feas) - 1
        assert mean_curve[0] > mean_curve[interior_min]
        assert mean_curve[-1] > mean_curve[interior_min]

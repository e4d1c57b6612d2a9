import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from oracle import choice_by_pair, jsonl_by_record, masked_counts
from test_schmidt import draw_bipartite_graph, draw_cut

from graphsteering import (
    Bipartition,
    InsufficientData,
    NoCorrelationForm,
    ProtocolConfig,
    Transcript,
    cloner_output,
    estimate_rates,
    make_chain,
    make_star,
    measured_joint,
    phase_covariant_gamma,
    run_protocol,
    stabilizer_table,
)
from graphsteering import protocol
from graphsteering.infotheory import mutual_information
from graphsteering.protocol import JSONL_CHUNK_ROWS, setting_pair_tables
from graphsteering.schmidt import mix_white_noise
from graphsteering.steering import (
    critical_noise,
    derive_both_settings,
    noise_threshold,
    steering_statistic,
)


def star3_config(**kwargs):
    g = make_star(3)
    part = Bipartition.from_side_a(g, {1})
    return ProtocolConfig(graph=g, d=2, part=part, **kwargs)


def assert_same_columns(got, want):
    for field in ("setting_a", "setting_b", "outcome_a", "outcome_b", "sifted"):
        assert getattr(got, field).dtype == getattr(want, field).dtype
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


def sifted_error_rate(t):
    mask = t.sifted
    a = t.outcome_a[mask]
    b = t.outcome_b[mask]
    return float(np.mean(a != b))


class TestConfigValidation:
    def test_zero_rounds(self):
        with pytest.raises(ValueError):
            star3_config(rounds=0)

    def test_bad_noise(self):
        with pytest.raises(ValueError):
            star3_config(noise_p=1.5)

    def test_disturbance_range_depends_on_d(self):
        with pytest.raises(ValueError):
            star3_config(cloner_disturbance=0.6)
        star3_config(cloner_disturbance=0.5)  # boundary allowed for d=2


class TestSettingPairTables:
    def test_matched_pairs_ideal(self):
        cfg = star3_config(rounds=10)
        tables = setting_pair_tables(cfg)
        for m in (1, 2):
            np.testing.assert_allclose(tables[(m, m)], np.eye(2) / 2, atol=1e-10)

    def test_all_tables_normalized(self):
        for cfg in (
            star3_config(rounds=10, noise_p=0.3),
            star3_config(rounds=10, cloner_disturbance=0.1, noise_p=0.2),
        ):
            for table in setting_pair_tables(cfg).values():
                assert table.min() >= -1e-12
                assert abs(table.sum() - 1.0) < 1e-10

    @hyp_settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_unattacked_tables_match_stabilizer_tables(self, data):
        # the closed form at disturbance 0 against the graph state's DFT tables, every ordered pair
        d = data.draw(st.one_of(st.integers(2, 10), st.just(30)), label="d")
        g = draw_bipartite_graph(data, 12)
        part = draw_cut(data, g)
        p = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), label="p")
        cfg = ProtocolConfig(graph=g, d=d, part=part, noise_p=p, rounds=1)
        try:
            settings = derive_both_settings(g, d, part)
        except NoCorrelationForm:
            with pytest.raises(NoCorrelationForm):
                setting_pair_tables(cfg)
            return
        want = mix_white_noise(stabilizer_table(g, d, [(sa, sb) for sa in settings for sb in settings], part), p)
        tables = setting_pair_tables(cfg)
        got = np.stack([tables[ma, mb] for ma in (1, 2) for mb in (1, 2)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_cloner_matched_diagonal_weight(self):
        # matched-setting agreement probability is 1 - D under the attack
        for disturbance in (0.1, 0.2):
            cfg = star3_config(rounds=10, cloner_disturbance=disturbance)
            tables = setting_pair_tables(cfg)
            for m in (1, 2):
                agree = np.trace(tables[(m, m)])
                assert abs(agree - (1.0 - disturbance)) < 1e-10


class TestRunProtocol:
    def test_ideal_run_statistics(self):
        t = run_protocol(star3_config(rounds=100_000, seed=7))
        frac = float(np.mean(t.sifted))
        assert abs(frac - 0.5) < 0.01
        assert sifted_error_rate(t) == 0.0

    def test_cloner_error_rate(self):
        t = run_protocol(star3_config(rounds=100_000, seed=7, cloner_disturbance=0.2))
        assert abs(sifted_error_rate(t) - 0.2) < 0.01

    def test_deterministic(self):
        cfg = star3_config(rounds=5000, seed=123, noise_p=0.1)
        t1 = run_protocol(cfg)
        t2 = run_protocol(cfg)
        np.testing.assert_array_equal(t1.outcome_a, t2.outcome_a)
        np.testing.assert_array_equal(t1.outcome_b, t2.outcome_b)
        np.testing.assert_array_equal(t1.setting_a, t2.setting_a)

    @hyp_settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2 ** 32 - 1),
        rounds=st.integers(1, 500),
        noise_p=st.floats(0.0, 1.0),
        disturbance=st.one_of(st.none(), st.floats(0.0, 0.5)),
    )
    def test_deterministic_property(self, d, seed, rounds, noise_p, disturbance):
        g = make_star(3)
        cfg = ProtocolConfig(
            graph=g,
            d=d,
            part=Bipartition.from_side_a(g, {1}),
            noise_p=noise_p,
            cloner_disturbance=disturbance,
            rounds=rounds,
            seed=seed,
        )
        t1, t2 = run_protocol(cfg), run_protocol(cfg)
        for field in ("setting_a", "setting_b", "outcome_a", "outcome_b", "sifted"):
            np.testing.assert_array_equal(getattr(t1, field), getattr(t2, field))

    @hyp_settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4, 5, 6, 7, 17]),
        seed=st.integers(0, 2 ** 32 - 1),
        # 1 and 2 rounds, a few rounds where some setting pair draws none, and longer runs
        rounds=st.one_of(st.sampled_from([1, 2]), st.integers(3, 12), st.integers(13, 3000)),
        noise_p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        attack=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    @example(d=17, seed=5, rounds=3000, noise_p=0.3, attack=0.5)  # an attacked d=17 case on every run
    def test_matches_choice_sampler(self, d, seed, rounds, noise_p, attack):
        disturbance = None if attack is None else attack * (d - 1) / d
        g = make_star(3)
        cfg = ProtocolConfig(
            graph=g,
            d=d,
            part=Bipartition.from_side_a(g, {1}),
            noise_p=noise_p,
            cloner_disturbance=disturbance,
            rounds=rounds,
            seed=seed,
        )
        assert_same_columns(run_protocol(cfg), choice_by_pair(cfg))

    @pytest.mark.parametrize("d", [2, 3, 17, 256, 257])
    @pytest.mark.parametrize("rounds", [1, 2, 7, 5000])
    def test_matches_choice_sampler_on_distinct_tables(self, monkeypatch, d, rounds):
        # the physical tables have (1, 1) == (2, 2) and (1, 2) == (2, 1), which hides the pair order
        rng = np.random.default_rng(d * rounds)
        tables = {}
        for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
            table = rng.random((d, d))
            table[rng.random((d, d)) < 0.3] = 0.0
            table[pair[0] - 1, pair[1] - 1] = 1.0
            tables[pair] = table
        monkeypatch.setattr(protocol, "setting_pair_tables", lambda cfg: tables)
        g = make_star(3)
        cfg = ProtocolConfig(graph=g, d=d, part=Bipartition.from_side_a(g, {1}), rounds=rounds, seed=rounds)
        assert_same_columns(run_protocol(cfg), choice_by_pair(cfg))

    @pytest.mark.parametrize("bad", [-1e-3, np.nan, np.inf, "zero"])
    def test_bad_table_refused(self, monkeypatch, bad):
        def tables(cfg):
            table = np.full((2, 2), 0.25)
            if bad == "zero":
                table[:] = 0.0
            else:
                table[0, 1] = bad
            return dict.fromkeys(((1, 1), (1, 2), (2, 1), (2, 2)), table)

        monkeypatch.setattr(protocol, "setting_pair_tables", tables)
        with pytest.raises(ValueError, match="joint table"):
            run_protocol(star3_config(rounds=10))

    def test_seed_changes_outcomes(self):
        t1 = run_protocol(star3_config(rounds=5000, seed=1))
        t2 = run_protocol(star3_config(rounds=5000, seed=2))
        assert not np.array_equal(t1.setting_a, t2.setting_a)

    def test_sifted_flag_consistent(self):
        t = run_protocol(star3_config(rounds=2000, seed=5))
        np.testing.assert_array_equal(t.sifted, t.setting_a == t.setting_b)

    def test_sifted_fraction_within_binomial_bounds(self):
        n = 50_000
        t = run_protocol(star3_config(rounds=n, seed=11))
        sigma = 0.5 / np.sqrt(n)
        assert abs(float(np.mean(t.sifted)) - 0.5) < 3 * sigma


class TestAttackedTables:
    @pytest.mark.parametrize("d", range(2, 18))
    def test_match_measured_cloner_state(self, d):
        # the closed form against measurement of the cloner's explicit d^4 state
        g = make_star(3)
        pairs = ((1, 1), (1, 2), (2, 1), (2, 2))
        for disturbance in (0.0, 0.1, (d - 1) / d):
            output = cloner_output(phase_covariant_gamma(disturbance, d))
            joints = np.stack([measured_joint(output, ma, mb) for ma, mb in pairs])
            for p in (0.0, 0.3):
                cfg = ProtocolConfig(graph=g, d=d, part=Bipartition.from_side_a(g, {1}), noise_p=p,
                                     cloner_disturbance=disturbance)
                tables = setting_pair_tables(cfg)
                got = np.stack([tables[pair] for pair in pairs])
                np.testing.assert_allclose(got, mix_white_noise(joints, p), rtol=0, atol=1e-12)


class TestEstimateRates:
    def test_ideal_estimates(self):
        t = run_protocol(star3_config(rounds=100_000, seed=3))
        est = estimate_rates(t, 2)
        assert abs(est.i_hat_total - 2.0) <= 0.02
        assert abs(est.r_hat_lower - 1.0) <= 0.02
        assert est.steerable_hat

    def test_supercritical_disturbance_clamps(self):
        t = run_protocol(star3_config(rounds=100_000, seed=3, cloner_disturbance=0.2))
        est = estimate_rates(t, 2)
        assert est.r_hat_lower == 0.0
        assert est.i_hat_total < 1.0

    def test_converges_to_analytic(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        settings = derive_both_settings(g, 2, part)
        for p in (0.0, 0.1):
            cfg = ProtocolConfig(
                graph=g, d=2, part=part, noise_p=p, rounds=1_000_000, seed=17
            )
            est = estimate_rates(run_protocol(cfg), 2)
            analytic = steering_statistic(g, 2, settings, part, p).i_total
            assert abs(est.i_hat_total - analytic) < 0.01

    def test_not_steerable_above_threshold(self):
        g = make_star(3)
        part = Bipartition.from_side_a(g, {1})
        p = noise_threshold(g, 2, part) + 0.02
        cfg = ProtocolConfig(graph=g, d=2, part=part, noise_p=p, rounds=100_000, seed=29)
        est = estimate_rates(run_protocol(cfg), 2)
        assert not est.steerable_hat

    @pytest.mark.parametrize(
        "d, attack",
        [(1024, {"cloner_disturbance": 0.6}), (64, {"noise_p": 1.05 * critical_noise(64)})],
        ids=["d1024-cloner", "d64-noise"],
    )
    def test_plug_in_bias_certifies_nothing(self, d, attack):
        # the plug-in estimate clears log2 d on its upward bias alone: 13.36 at d=1024, 6.03 at d=64
        g = make_star(3)
        cfg = ProtocolConfig(graph=g, d=d, part=Bipartition.from_side_a(g, {1}), rounds=100_000, seed=0, **attack)
        est = estimate_rates(run_protocol(cfg), d)
        assert est.i_hat_total > np.log2(d)
        assert est.i_lower_total < np.log2(d)
        assert est.steerable_hat is False and est.r_hat_lower == 0.0

    @pytest.mark.parametrize("d", [2, 3, 17])
    def test_lower_total_subtracts_the_bias_bound(self, d):
        g = make_chain(3)
        cfg = ProtocolConfig(graph=g, d=d, part=Bipartition.from_side_a(g, {1}), noise_p=0.1, rounds=20_000, seed=d)
        est = estimate_rates(run_protocol(cfg), d)
        bias = sum(np.log2(1 + (d * d - 1) / n) for n in est.sifted_rounds)
        assert abs(est.i_lower_total - (est.i_hat_total - bias)) < 1e-12
        assert est.r_hat_lower == max(0.0, est.i_lower_total - np.log2(d))
        assert est.steerable_hat == (est.i_lower_total > np.log2(d))

    def test_single_sifted_round_per_setting(self):
        t = Transcript(
            setting_a=np.array([1, 2, 1]),
            setting_b=np.array([1, 2, 2]),
            outcome_a=np.array([0, 1, 0]),
            outcome_b=np.array([0, 1, 1]),
            sifted=np.array([True, True, False]),
            d=2,
        )
        est = estimate_rates(t, 2)
        assert est.i_hat_total == 0.0
        assert est.sifted_rounds == (1, 1)

    def test_insufficient_data(self):
        t = Transcript(
            setting_a=np.array([1, 1]),
            setting_b=np.array([1, 2]),
            outcome_a=np.array([0, 0]),
            outcome_b=np.array([0, 0]),
            sifted=np.array([True, False]),
            d=2,
        )
        with pytest.raises(InsufficientData):
            estimate_rates(t, 2)

    @pytest.mark.parametrize("missing", [1, 2])
    def test_insufficient_data_message(self, missing):
        present = 3 - missing
        t = Transcript(
            setting_a=np.array([present, present, missing]),
            setting_b=np.array([present, missing, present]),
            outcome_a=np.array([0, 1, 0]),
            outcome_b=np.array([0, 1, 1]),
            sifted=np.array([True, False, False]),
            d=2,
        )
        with pytest.raises(InsufficientData, match=f"^no sifted rounds for setting m={missing}$"):
            estimate_rates(t, 2)

    @pytest.mark.parametrize("d", [2, 3, 17])
    @pytest.mark.parametrize("chunk", [protocol.COUNT_CHUNK_ROUNDS, 4099])
    def test_counts_match_masked_counts(self, monkeypatch, d, chunk):
        monkeypatch.setattr(protocol, "COUNT_CHUNK_ROUNDS", chunk)  # 4099: about 10,000 sifted rounds in three slices
        g = make_chain(3)
        cfg = ProtocolConfig(graph=g, d=d, part=Bipartition.from_side_a(g, {1}), noise_p=0.3,
                             rounds=20_000, seed=d)
        t = run_protocol(cfg)
        tables = [masked_counts(t, m) for m in (1, 2)]
        for m, want in zip((1, 2), tables):
            np.testing.assert_array_equal(t.sifted_counts(m), want)
        with pytest.raises(ValueError, match="setting must be 1 or 2"):
            t.sifted_counts(0)
        est = estimate_rates(t, d)
        totals = [int(table.sum()) for table in tables]
        assert est.sifted_rounds == tuple(totals)
        assert est.i_hat_total == float(sum(
            mutual_information(table / total) for table, total in zip(tables, totals)
        ))


class TestTranscriptExport:
    def test_jsonl_round_trip(self):
        t = run_protocol(star3_config(rounds=50, seed=2))
        buf = io.BytesIO()
        t.to_jsonl(buf)
        lines = buf.getvalue().decode().strip().split("\n")
        assert len(lines) == 50
        for k, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["round"] == k
            assert rec["ma"] in (1, 2) and rec["mb"] in (1, 2)
            assert rec["a"] in (0, 1) and rec["b"] in (0, 1)
            assert rec["sifted"] == (rec["ma"] == rec["mb"])
            assert rec["ma"] == int(t.setting_a[k])

    def test_counts_consistent_with_records(self):
        chain = make_chain(4)
        for cfg in (
            star3_config(rounds=3000, seed=13, noise_p=0.2),
            ProtocolConfig(
                graph=chain, d=3, part=Bipartition.from_side_a(chain, {1}),
                noise_p=0.2, rounds=3000, seed=13,
            ),
        ):
            t = run_protocol(cfg)
            for m in (1, 2):
                counts = t.sifted_counts(m)
                mask = t.sifted & (t.setting_a == m)
                assert counts.sum() == int(mask.sum())
                manual = np.zeros((cfg.d, cfg.d), dtype=int)
                for a, b in zip(t.outcome_a[mask], t.outcome_b[mask]):
                    manual[a, b] += 1
                np.testing.assert_array_equal(counts, manual)

    @hyp_settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([*range(2, 13), 100, 4096]),
        rounds=st.one_of(
            st.integers(1, 120),
            st.integers(990, 1010),
            st.integers(9990, 10010),
            st.sampled_from([JSONL_CHUNK_ROWS * k + o for k in (1, 2, 3) for o in (-1, 0, 1)]),
        ),
        seed=st.integers(0, 2 ** 32 - 1),
        narrow=st.booleans(),
    )
    # the chunk of rounds 18,192-20,000 wraps the low four digits from 9999 to 0000
    @example(d=12, rounds=20_001, seed=5, narrow=True)
    @example(d=1024, rounds=100_001, seed=6, narrow=True)  # round numbers gain a sixth digit
    def test_matches_record_writer(self, d, rounds, seed, narrow):
        rng = np.random.default_rng(seed)
        ma, mb = rng.integers(1, 3, size=(2, rounds))
        # outcomes drawn from a random range, so some chunks hold only short numbers
        top = int(rng.integers(1, d + 1))
        a, b = rng.integers(0, top, size=(2, rounds))
        if narrow:  # the column type run_protocol stores
            ma, mb, a, b = (c.astype(np.min_scalar_type(max(2, d - 1))) for c in (ma, mb, a, b))
        t = Transcript(setting_a=ma, setting_b=mb, outcome_a=a, outcome_b=b, sifted=ma == mb, d=d)
        buf = io.BytesIO()
        t.to_jsonl(buf)
        assert buf.getvalue() == jsonl_by_record(t).encode()

    def test_zero_rounds_write_nothing(self):
        empty = np.zeros(0, dtype=np.int64)
        t = Transcript(empty, empty, empty, empty, np.zeros(0, dtype=bool), d=2)
        buf = io.StringIO()
        t.to_jsonl(buf)
        assert buf.getvalue() == ""

    def test_one_bytes_write_per_chunk(self):
        class Stream:
            def __init__(self):
                self.writes = []

            def write(self, data):
                assert isinstance(data, bytes)
                self.writes.append(data)

        t = run_protocol(star3_config(rounds=3 * JSONL_CHUNK_ROWS, seed=4))
        stream = Stream()
        t.to_jsonl(stream)
        # rounds 0-9, 10-99, 100-999, 1000-9999 (split at the chunk size), 10000-12287
        sizes = [data.count(b"\n") for data in stream.writes]
        assert sizes == [10, 90, 900, 4096, 4096, 808, 2288]
        assert b"".join(stream.writes) == jsonl_by_record(t).encode()


class TestHigherDimension:
    def test_d3_chain_ideal(self):
        g = make_chain(4)
        part = Bipartition.from_side_a(g, {1})
        cfg = ProtocolConfig(graph=g, d=3, part=part, rounds=100_000, seed=9)
        est = estimate_rates(run_protocol(cfg), 3)
        assert abs(est.i_hat_total - 2 * np.log2(3)) < 0.03
        assert est.steerable_hat

    def test_one_byte_columns_counted_without_overflow(self):
        # d=17 keeps every column in uint8, where a*d + b would wrap past 255
        g = make_chain(2)
        cfg = ProtocolConfig(graph=g, d=17, part=Bipartition.from_side_a(g, {1}), noise_p=0.5,
                             rounds=20_000, seed=3)
        t = run_protocol(cfg)
        for column in (t.setting_a, t.setting_b, t.outcome_a, t.outcome_b):
            assert column.dtype == np.uint8
        for m in (1, 2):
            mask = t.sifted & (t.setting_a == m)
            manual = np.zeros((17, 17), dtype=int)
            np.add.at(manual, (t.outcome_a[mask].astype(int), t.outcome_b[mask].astype(int)), 1)
            np.testing.assert_array_equal(t.sifted_counts(m), manual)

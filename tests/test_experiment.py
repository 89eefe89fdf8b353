"""Tests for the sweep harness, persistence, and chart rendering."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hurwitz_unitary, rank_sum_z, same_bits
from nmecut.errors import InvalidParameterError
from nmecut.estimator import RandomSource, RngLike, as_generator, estimate_cut_expectation, exact_expectation
from nmecut.experiment import (
    CsvFormatError,
    ExperimentConfig,
    ExperimentRecord,
    _haar_unitaries,
    _sample_stream,
    _w_stream,
    check_records,
    haar_random_unitary,
    loglog_slope,
    read_csv,
    render_svg,
    run_sweep,
    write_csv,
)
from nmecut.linalg import H, I2, Z
from nmecut.qpd import nme_wire_cut
from nmecut.states import k_from_f


class TestHaarRandomUnitary:
    def test_unitarity(self):
        gen = RandomSource(1, 0).generator()
        for _ in range(1000):
            w = haar_random_unitary(gen)
            assert np.abs(w.conj().T @ w - I2).max() <= 1e-12

    def test_fixed_seed_reproduces(self):
        a = haar_random_unitary(RandomSource(42, 3))
        b = haar_random_unitary(RandomSource(42, 3))
        np.testing.assert_array_equal(a, b)

    def test_first_entry_moment(self):
        # Haar moment E|W00|^2 = 1/2 in dimension 2; the oracle is an
        # independent angle-parametrized sampler.
        # The 100,000 matrices come from one stacked draw, which gives the bits
        # of 100,000 sequential haar_random_unitary calls; the first rows are
        # checked against those calls.
        gen = RandomSource(7, 0).generator()
        samples = 100_000
        stacked = _haar_unitaries(gen.standard_normal((samples, 2, 2, 2)))
        scalar_gen = RandomSource(7, 0).generator()
        for w in stacked[:5]:
            assert same_bits(w, haar_random_unitary(scalar_gen))
        mean = np.mean(np.abs(stacked[:, 0, 0]) ** 2)
        assert mean == pytest.approx(0.5, abs=0.01)
        oracle_gen = np.random.default_rng(7)
        oracle = np.mean([abs(hurwitz_unitary(oracle_gen)[0, 0]) ** 2 for _ in range(20_000)])
        assert oracle == pytest.approx(0.5, abs=0.02)
        assert mean == pytest.approx(oracle, abs=0.02)


def haar_reference(rng: RngLike) -> np.ndarray:
    """haar_random_unitary as it was before the stacked QR: one draw, one QR, np.diag rephasing."""
    gen = as_generator(rng)
    ginibre = (gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


class TestStackedHaar:
    """One QR over a stack gives every state the bits its own QR gives."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 50))
    def test_stacked_qr_matches_per_matrix_qr(self, seed, n):
        normals = RandomSource(seed).generator().standard_normal((n, 2, 2, 2))
        stacked = _haar_unitaries(normals)
        for (re, im), w in zip(normals, stacked):
            q, r = np.linalg.qr((re + 1j * im) / math.sqrt(2.0))
            assert same_bits(w, q * (np.diag(r) / np.abs(np.diag(r))))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stream_id=st.integers(0, 2**64 - 1))
    def test_matches_the_per_state_function(self, seed, stream_id):
        source = RandomSource(seed, stream_id)
        assert same_bits(haar_random_unitary(source), haar_reference(source))
        gen, reference_gen = source.generator(), source.generator()
        for _ in range(3):  # a plain generator advances exactly as before
            assert same_bits(haar_random_unitary(gen), haar_reference(reference_gen))


def trial_error(k, prep, shots, rng, mode="stratified", qpd=None):
    """|estimate - exact| of one cut estimate of <Z>, the error the sweep averages per cell."""
    qpd = nme_wire_cut(k) if qpd is None else qpd
    return abs(estimate_cut_expectation(qpd, prep, Z, shots, rng, mode=mode) - exact_expectation(prep, Z))


class TestRunTrial:
    """One trial's error, built from the public estimator calls."""

    def test_deterministic_zero_error(self):
        error = trial_error(1.0, I2, 100, RandomSource(0, 0))
        assert error == 0.0

    def test_pure_shot_noise_tail(self):
        # At k = 1 and <Z> = 0 the error is |mean of N fair +/-1 draws|;
        # its 95th percentile stays below 2.8/sqrt(N).
        shots = 5000
        gen = RandomSource(13, 0).generator()
        errors = np.array([trial_error(1.0, H, shots, gen) for _ in range(300)])
        assert np.quantile(errors, 0.95) <= 2.8 / math.sqrt(shots)

    def test_error_grows_without_entanglement(self):
        # Paired states, same shot budget: the k = 0 errors dominate the
        # k = 1 errors (rank-sum at 4 sigma).
        shots = 5000
        states = 200
        errors = {}
        for k in (0.0, 1.0):
            values = np.empty(states)
            for i in range(states):
                w = haar_random_unitary(RandomSource(100, i))
                values[i] = trial_error(k, w, shots, RandomSource(200 + int(k), i))
            errors[k] = values
        assert rank_sum_z(errors[0.0], errors[1.0]) > 4.0

    def test_error_bounded(self):
        gen = RandomSource(3, 0).generator()
        for _ in range(200):
            w = haar_random_unitary(gen)
            assert trial_error(0.0, w, 250, gen) <= 2.0


class TestRunSweep:
    def test_identity_prep_gives_zero_error(self):
        assert trial_error(1.0, I2, 100, RandomSource(1, 0)) == 0.0

    def test_record_schema(self):
        config = ExperimentConfig(
            f_values=(0.5, 0.8), shot_grid=(50, 100, 200), n_states=5, seed=3
        )
        records = run_sweep(config)
        assert len(records) == 6
        for r in records:
            assert math.isfinite(r.avg_error) and r.avg_error >= 0.0
            assert r.std_error >= 0.0
            assert r.n_states == 5
        assert [(r.f, r.shots) for r in records] == [
            (f, s) for f in (0.5, 0.8) for s in (50, 100, 200)
        ]

    def test_paired_sequences_share_preparations(self):
        base = ExperimentConfig(f_values=(0.5, 1.0), shot_grid=(64,), n_states=4, seed=9)
        paired = run_sweep(base)
        unpaired = run_sweep(
            ExperimentConfig(
                f_values=(0.5, 1.0), shot_grid=(64,), n_states=4, seed=9, paired=False
            )
        )
        # Pairing is internal; both runs share the schema but the unpaired
        # run draws different preparations for the second f, so the error
        # values differ there.
        assert paired[1].avg_error != unpaired[1].avg_error

    def test_deterministic_records(self):
        config = ExperimentConfig(f_values=(0.7,), shot_grid=(100, 200), n_states=6, seed=21)
        assert run_sweep(config) == run_sweep(config)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(f_values=(0.4,))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(shot_grid=(100, 100))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(shot_grid=())
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n_states=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(mode="bogus")

    @pytest.mark.parametrize("seed", [-5, 2**64])
    def test_config_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(seed=seed)

    def test_config_bounds_keep_stream_keys_disjoint(self):
        # Index fields are packed into 24/16/16-bit slots of the stream id.
        ExperimentConfig(n_states=2**24, shot_grid=tuple(range(1, 2**16 + 1)))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(n_states=2**24 + 1)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(shot_grid=tuple(range(1, 2**16 + 2)))
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(f_values=(0.5,) * (2**16 + 1))

    @pytest.mark.parametrize("paired", [True, False])
    def test_builds_no_random_source_per_state_or_trial(self, monkeypatch, paired):
        # One for the config's seed check and one for the sweep's generator;
        # every stream after that is a re-key from plain integers.
        built = []
        check = RandomSource.__post_init__
        monkeypatch.setattr(RandomSource, "__post_init__", lambda self: (built.append(self), check(self)))
        run_sweep(ExperimentConfig(f_values=(0.5, 1.0), shot_grid=(10, 20), n_states=5, seed=9, paired=paired))
        assert len(built) <= 2

    @pytest.mark.parametrize("mode", ["stratified", "multinomial"])
    @pytest.mark.parametrize("paired", [True, False])
    def test_matches_trial_by_trial_reference(self, mode, paired):
        # Reference sweep from public pieces: one fresh stream per preparation
        # and per trial.  Budgets of 1-3 shots leave some terms without shots.
        config = ExperimentConfig(
            f_values=(0.5, 0.8, 1.0), shot_grid=(1, 2, 3, 10, 250), n_states=7,
            seed=2024, mode=mode, paired=paired,
        )
        expected = []
        for fi, f in enumerate(config.f_values):
            k = k_from_f(f)
            qpd = nme_wire_cut(k)
            preps = [
                haar_random_unitary(RandomSource(config.seed, _w_stream(config, fi, si)))
                for si in range(config.n_states)
            ]
            for ji, shots in enumerate(config.shot_grid):
                errors = np.array([
                    trial_error(
                        k, preps[si], shots,
                        RandomSource(config.seed, _sample_stream(fi, ji, si)), mode, qpd,
                    )
                    for si in range(config.n_states)
                ])
                expected.append(
                    ExperimentRecord(
                        f=f, k=k, shots=shots, avg_error=float(errors.mean()),
                        std_error=float(errors.std(ddof=1) / math.sqrt(config.n_states)),
                        n_states=config.n_states,
                    )
                )
        assert run_sweep(config) == expected


class TestConfigFromMapping:
    def test_absent_keys_keep_defaults_and_lists_become_tuples(self):
        config = ExperimentConfig.from_mapping({"f_values": [0.9], "shot_grid": [10, 20], "paired": False})
        assert config == ExperimentConfig(f_values=(0.9,), shot_grid=(10, 20), paired=False)
        assert isinstance(config.f_values, tuple) and isinstance(config.shot_grid, tuple)
        assert ExperimentConfig.from_mapping({}) == ExperimentConfig()

    def test_accepts_numpy_scalars(self):
        config = ExperimentConfig.from_mapping(
            {"f_values": [np.float64(0.9), 1], "shot_grid": [np.int64(10)], "n_states": np.int64(2), "seed": np.uint64(3)}
        )
        assert config.n_states == 2
        stored = (*config.f_values, *config.shot_grid, config.n_states, config.seed)
        assert [type(v) for v in stored] == [float, float, int, int, int]

    @pytest.mark.parametrize("values", [[1, 2], "f_values", None, 3])
    def test_rejects_non_object(self, values):
        with pytest.raises(InvalidParameterError, match="object"):
            ExperimentConfig.from_mapping(values)

    @pytest.mark.parametrize("key", ["n_state", "shots", "identity_prep", "Seed"])
    def test_rejects_unknown_key(self, key):
        with pytest.raises(InvalidParameterError, match=repr(key)):
            ExperimentConfig.from_mapping({"n_states": 2, key: 1})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("f_values", "0.9"),
            ("f_values", 0.9),
            ("f_values", {"0.9": 1}),
            ("f_values", ["0.9"]),
            ("f_values", [True]),
            ("f_values", [None]),
            ("shot_grid", 100),
            ("shot_grid", [100.0]),
            ("shot_grid", [True, 2]),
            ("n_states", 2.5),
            ("n_states", 2.0),
            ("n_states", True),
            ("n_states", "2"),
            ("seed", True),
            ("seed", 1.0),
            ("seed", None),
            ("mode", ["stratified"]),
            ("mode", None),
            ("paired", "false"),
            ("paired", 0),
            ("paired", None),
        ],
    )
    def test_rejects_wrong_type_naming_the_key(self, key, value):
        with pytest.raises(InvalidParameterError, match=key):
            ExperimentConfig.from_mapping({key: value})


# Index bounds enforced when an ExperimentConfig is constructed.
_F_INDEX = st.integers(0, 2**16 - 1)
_SHOT_INDEX = st.integers(0, 2**16 - 1)
_STATE_INDEX = st.integers(0, 2**24 - 1)
# (role, indices) -> stream id; paired preparations ignore the f index by design.
_STREAM_KEYS = st.one_of(
    st.tuples(st.just("w_paired"), st.tuples(_STATE_INDEX)),
    st.tuples(st.just("w_unpaired"), st.tuples(_F_INDEX, _STATE_INDEX)),
    st.tuples(st.just("sample"), st.tuples(_F_INDEX, _SHOT_INDEX, _STATE_INDEX)),
)


def _stream_id(role, indices):
    if role == "w_paired":
        return _w_stream(ExperimentConfig(paired=True), 0, indices[0])
    if role == "w_unpaired":
        return _w_stream(ExperimentConfig(paired=False), *indices)
    return _sample_stream(*indices)


class TestStreamKeys:
    @settings(max_examples=300, deadline=None)
    @given(a=_STREAM_KEYS, b=_STREAM_KEYS)
    def test_keys_are_injective_across_roles(self, a, b):
        id_a, id_b = _stream_id(*a), _stream_id(*b)
        assert 0 <= id_a < 2**64
        assert (id_a == id_b) == (a == b)


class TestSweepInvariants:
    def test_endpoint_ordering_at_largest_budget(self, acceptance_sweep):
        # avg_error non-increasing in f at the largest budget, with the
        # endpoints separated by at least 4 sigma of the paired errors.
        records, _ = acceptance_sweep
        top = max(r.shots for r in records)
        at_top = {r.f: r for r in records if r.shots == top}
        fs = sorted(at_top)
        errors = [at_top[f].avg_error for f in fs]
        # allow adjacent cells to tie within noise, but no inversions beyond it
        for a, b in zip(fs, fs[1:]):
            assert at_top[b].avg_error <= at_top[a].avg_error + 4.0 * max(
                at_top[a].std_error, at_top[b].std_error
            )
        low, high = at_top[fs[0]], at_top[fs[-1]]
        spread = math.hypot(low.std_error, high.std_error)
        assert (low.avg_error - high.avg_error) / spread > 4.0
        assert errors[0] > errors[-1]

    def test_errors_well_below_hard_bound(self, acceptance_sweep):
        records, _ = acceptance_sweep
        assert all(0.0 <= r.avg_error <= 2.0 for r in records)

    def test_per_f_slopes_near_square_root_law(self, acceptance_sweep):
        records, _ = acceptance_sweep
        by_f = {}
        for r in records:
            by_f.setdefault(r.f, []).append((r.shots, r.avg_error))
        for f, cells in by_f.items():
            cells.sort()
            slope = loglog_slope([c[0] for c in cells], [c[1] for c in cells])
            assert -0.65 <= slope <= -0.35, f"f={f}: slope {slope}"


class TestCsvRoundTrip:
    def test_empty_records_write_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], str(path))
        assert path.read_text() == "f,k,shots,avg_error,std_error,n_states\n"

    def test_single_record_layout(self, tmp_path):
        record = ExperimentRecord(f=1.0, k=1.0, shots=500, avg_error=0.012, std_error=0.001, n_states=200)
        path = tmp_path / "one.csv"
        write_csv([record], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 6

    def test_round_trip_identity(self, tmp_path):
        records = [
            ExperimentRecord(
                f=0.5 + 0.1 * i,
                k=0.123456789 * i,
                shots=250 * (i + 1),
                avg_error=0.1 / (i + 1),
                std_error=0.01 / (i + 1),
                n_states=100,
            )
            for i in range(5)
        ]
        path = tmp_path / "round.csv"
        write_csv(records, str(path))
        assert read_csv(str(path)) == records

    def test_byte_identical_reruns(self, tmp_path):
        config = ExperimentConfig(f_values=(0.6, 1.0), shot_grid=(64, 128), n_states=8, seed=77)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(config), str(first))
        write_csv(run_sweep(config), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_numpy_scalar_config_round_trips(self, tmp_path):
        numpy_config = ExperimentConfig(
            f_values=(np.float64(0.5), 1), shot_grid=(np.int64(64),), n_states=np.int64(2), seed=np.uint64(3)
        )
        plain_config = ExperimentConfig(f_values=(0.5, 1.0), shot_grid=(64,), n_states=2, seed=3)
        numpy_path, plain_path = tmp_path / "numpy.csv", tmp_path / "plain.csv"
        records = run_sweep(numpy_config)
        write_csv(records, str(numpy_path))
        write_csv(run_sweep(plain_config), str(plain_path))
        assert numpy_path.read_bytes() == plain_path.read_bytes()
        assert read_csv(str(numpy_path)) == records

    def test_failed_write_leaves_previous_file(self, tmp_path):
        record = ExperimentRecord(f=1.0, k=1.0, shots=500, avg_error=0.012, std_error=0.001, n_states=200)
        path = tmp_path / "kept.csv"
        write_csv([record] * 3, str(path))
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            write_csv([record, None], str(path))  # fails after the header and one row
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(CsvFormatError):
            read_csv(str(path))

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f,k,shots,avg_error,std_error,n_states\n0.5,0,oops,0.1,0.01,10\n")
        with pytest.raises(CsvFormatError):
            read_csv(str(path))

    def test_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"f,k,shots,avg_error,std_error,n_states\n0.5,0,250,0.1\xe9,0.01,10\n")
        with pytest.raises(CsvFormatError):
            read_csv(str(path))


def synthetic_records(f_values, shot_values, scale=1.0, slope=-0.5):
    records = []
    for f in f_values:
        # Error amplitude proportional to the overhead of the matching cut.
        amplitude = scale * (2.0 / f - 1.0)
        for shots in shot_values:
            records.append(
                ExperimentRecord(
                    f=f,
                    k=0.0,
                    shots=shots,
                    avg_error=amplitude * shots**slope,
                    std_error=0.0,
                    n_states=1,
                )
            )
    return records


class TestChecksAndPlot:
    def test_loglog_slope_recovers_exponent(self):
        shots = [250, 500, 1000, 2000]
        errors = [0.9 * s**-0.5 for s in shots]
        assert loglog_slope(shots, errors) == pytest.approx(-0.5, abs=1e-12)

    def test_check_passes_on_well_formed_records(self):
        records = synthetic_records((0.5, 0.75, 1.0), (250, 500, 1000, 2000, 4000))
        assert check_records(records) == []

    def test_check_flags_bad_slope(self):
        records = synthetic_records((0.5, 1.0), (250, 500, 1000, 2000), slope=-0.1)
        failures = check_records(records)
        assert any("slope" in msg for msg in failures)

    def test_check_flags_inverted_ordering(self):
        records = synthetic_records((0.5, 1.0), (250, 1000, 2000))
        flipped = [
            ExperimentRecord(
                f=r.f, k=r.k, shots=r.shots,
                avg_error=r.avg_error * (9.0 if r.f == 1.0 else 1.0),
                std_error=r.std_error, n_states=r.n_states,
            )
            for r in records
        ]
        failures = check_records(flipped)
        assert any("not above" in msg for msg in failures)

    def test_check_ignores_small_budgets(self):
        records = synthetic_records((0.5, 1.0), (250, 500))
        flipped = [
            ExperimentRecord(
                f=r.f, k=r.k, shots=r.shots, avg_error=0.05, std_error=0.0, n_states=1
            )
            for r in records
        ]
        # Equal errors below the 1000-shot threshold: ordering not enforced,
        # and constant series fail the slope band instead.
        failures = check_records(flipped)
        assert all("slope" in msg for msg in failures)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.1])
    def test_check_flags_every_unusable_error_cell(self, bad):
        records = synthetic_records((0.5, 1.0), (250, 1000, 4000))
        broken = [
            ExperimentRecord(
                f=r.f, k=r.k, shots=r.shots, avg_error=bad if r.shots == 1000 else r.avg_error,
                std_error=r.std_error, n_states=r.n_states,
            )
            for r in records
        ]
        failures = check_records(broken)
        assert sum("shots=1000" in msg and "positive finite" in msg for msg in failures) == 2

    def test_check_fails_when_nothing_is_checkable(self):
        records = [
            ExperimentRecord(f=f, k=0.0, shots=s, avg_error=float("nan"), std_error=0.0, n_states=1)
            for f in (0.5, 1.0)
            for s in (250, 1000)
        ]
        failures = check_records(records)
        assert sum("positive finite" in msg for msg in failures) == 4

    def test_render_svg_polylines_and_legend(self, tmp_path):
        records = synthetic_records(
            (0.5, 0.6, 0.7, 0.8, 0.9, 1.0), (250, 500, 1000, 2000)
        )
        path = tmp_path / "chart.svg"
        render_svg(records, str(path))
        text = path.read_text()
        assert text.count("<polyline") == 6
        legend_order = [text.index(f"f = {f:g}") for f in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)]
        assert legend_order == sorted(legend_order)
        assert "1e-" in text  # log-scale decade labels

    def test_render_single_point_series_as_marker(self, tmp_path):
        records = synthetic_records((0.5,), (1000,))
        path = tmp_path / "point.svg"
        render_svg(records, str(path))
        text = path.read_text()
        assert "<polyline" not in text
        assert "<circle" in text

    def test_render_skips_nonpositive_errors(self, tmp_path):
        records = [
            ExperimentRecord(f=1.0, k=1.0, shots=100, avg_error=0.0, std_error=0.0, n_states=1),
            ExperimentRecord(f=1.0, k=1.0, shots=200, avg_error=0.01, std_error=0.0, n_states=1),
        ]
        path = tmp_path / "zeros.svg"
        render_svg(records, str(path))
        assert path.read_text().count("<circle") == 1

    def test_render_failure_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "kept.svg"
        render_svg(synthetic_records((0.5,), (1000,)), str(path))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            render_svg(synthetic_records((0.5, 1.0), (250, 500)), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["kept.svg"]

    def test_render_rejects_empty(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            render_svg([], str(tmp_path / "none.svg"))

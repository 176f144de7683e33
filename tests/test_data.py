import numpy as np
import pytest

from transduct import (
    DataError,
    InputError,
    KernelSpec,
    ParseError,
    PosteriorState,
    RoundEntry,
    RunRecord,
    labeled_oracle,
    load_embeddings,
    load_run,
    persist_run,
    gram,
    sample_gp_truth,
    save_embeddings,
)
from transduct.data import (
    load_table,
    save_embeddings_binary,
    save_table,
)
from transduct.kernels import jittered


class TestEmbeddingFiles:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("p=2 n=2\n0,1.0,2.0\n1,-0.5,1e-3\n")
        ids, matrix = load_embeddings(str(path))
        assert ids == [0, 1]
        np.testing.assert_array_equal(matrix, [[1.0, 2.0], [-0.5, 1e-3]])

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("p=1 n=2\n7,1.0\n7,2.0\n")
        with pytest.raises(ParseError, match="duplicate id 7"):
            load_embeddings(str(path))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("p=2 n=2\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ParseError, match=":3"):
            load_embeddings(str(path))

    def test_huge_header_is_parse_error(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("p=100000000000 n=100000000000\n0,1.0\n")
        with pytest.raises(ParseError, match="header declares"):
            load_embeddings(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("p=1 n=1\n0,nan\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_embeddings(str(path))

    def test_round_trip_is_bit_exact(self, tmp_path, rng):
        features = np.stack([rng.standard_normal(5) * 10.0 ** float(rng.integers(-8, 8))
                             for _ in range(20)])
        ids = rng.permutation(40)[:20]
        path = tmp_path / "emb.txt"
        save_embeddings(ids, features, str(path))
        loaded_ids, loaded = load_embeddings(str(path))
        assert loaded_ids == ids.tolist()
        assert np.array_equal(loaded, features)

    def test_binary_round_trip(self, tmp_path, rng):
        features = rng.standard_normal((7, 300))
        ids = rng.permutation(40)[:7]
        path = tmp_path / "emb.bin"
        save_embeddings_binary(ids, features, str(path))
        loaded_ids, loaded = load_embeddings(str(path))
        assert loaded_ids == ids.tolist()
        assert np.array_equal(loaded, features)

    def test_writers_write_the_documented_bytes(self, tmp_path):
        ids, features = (2, 0), [[1.5, -0.25], [1e-300, 3]]
        save_embeddings(ids, features, str(tmp_path / "emb.txt"))
        assert (tmp_path / "emb.txt").read_text() == "p=2 n=2\n2,1.5,-0.25\n0,1e-300,3.0\n"
        save_embeddings_binary(ids, features, str(tmp_path / "emb.bin"))
        assert (tmp_path / "emb.bin").read_bytes() == (
            b"TDEMB1\n" + np.array([2, 2, 2, 0], dtype="<i8").tobytes()
            + np.array([1.5, -0.25, 1e-300, 3.0], dtype="<f8").tobytes())

    def test_binary_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not.bin"
        path.write_bytes(b"something else entirely")
        with pytest.raises(ParseError):
            load_embeddings(str(path))
        path.write_bytes(b"\xff\xfe not utf-8")
        with pytest.raises(ParseError, match="UTF-8"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("cut", [slice(0, 10), slice(0, -8), None],
                             ids=["short-header", "short-body", "trailing-bytes"])
    def test_binary_size_must_match_header(self, tmp_path, rng, cut):
        path = tmp_path / "emb.bin"
        save_embeddings_binary(range(4), rng.standard_normal((4, 3)), str(path))
        blob = path.read_bytes()
        path.write_bytes(blob + b"\0" * 8 if cut is None else blob[cut])
        with pytest.raises(ParseError, match="binary"):
            load_embeddings(str(path))

    def test_binary_negative_id_is_parse_error_naming_the_file(self, tmp_path, rng):
        path = tmp_path / "emb.bin"
        save_embeddings_binary(range(3), rng.standard_normal((3, 2)), str(path))
        blob = bytearray(path.read_bytes())
        first_id = len(b"TDEMB1\n") + 16
        blob[first_id + 8:first_id + 16] = np.array([-4], dtype="<i8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=r"emb\.bin: negative id -4"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("save", [save_embeddings, save_embeddings_binary])
    @pytest.mark.parametrize("ids, features, message", [
        ([], np.zeros((0, 2)), "nonempty"),
        ([0, 1], np.zeros((2, 0)), "nonempty"),
        ([0, 1], [[1.0, 2.0], [1.0]], "numeric"),
        ([0, 1, 2], [[1.0], [2.0]], "one row per id"),
        ([0, -2], [[1.0], [2.0]], "nonnegative"),
        ([3, 3], [[1.0], [2.0]], r"ids repeat: \[3\]"),
        ([0, 1], [[1.0], [np.inf]], "non-finite"),
    ], ids=["empty", "no-columns", "mixed-dims", "missing-row", "negative-id",
            "duplicate-ids", "non-finite"])
    def test_writers_refuse_what_the_reader_would(self, tmp_path, save, ids, features,
                                                  message):
        path = tmp_path / "emb.out"
        with pytest.raises(InputError, match=message):
            save(ids, features, str(path))
        assert not path.exists()


def draw_truth(spec, features, seed):
    return sample_gp_truth(gram(spec, range(len(features)), features), seed)


def prior_of(spec, features, noise, ids=None):
    """The prior state over ``features`` (ids 0..N-1 unless given) and its truth at seed 0."""
    ids = range(len(features)) if ids is None else ids
    state = PosteriorState.from_prior(gram(spec, ids, features), noise)
    return state, sample_gp_truth(state.gram, 0)


class TestSyntheticTruth:
    def test_single_point_moments(self):
        prior = gram(KernelSpec("linear"), [0], [[1.0]])  # built once
        draws = np.array([sample_gp_truth(prior, seed)[0] for seed in range(100_000)])
        assert abs(draws.var() - 1.0) < 0.02

    def test_degenerate_kernel_gives_zero(self):
        spec = KernelSpec("linear")
        truth = draw_truth(spec, [[0.0]], 3)
        assert truth[0] == 0.0

    def test_seeded_reproducibility(self, rng):
        spec = KernelSpec("gaussian", 0.5)
        grid = rng.uniform(0, 1, (6, 2))
        a = draw_truth(spec, grid, 42)
        b = draw_truth(spec, grid, 42)
        assert np.array_equal(a, b)

    def test_covariance_moment_check(self, rng):
        spec = KernelSpec("gaussian", 0.7)
        prior = gram(spec, range(5), rng.uniform(0, 1, (5, 1)))  # built once
        k = prior.values
        n = 10_000
        draws = np.stack([sample_gp_truth(prior, seed) for seed in range(n)])
        empirical = draws.T @ draws / n
        stderr = np.sqrt((np.outer(np.diag(k), np.diag(k)) + k ** 2) / n)
        assert np.all(np.abs(empirical - k) <= 5 * stderr)

    def test_draw_is_the_seeded_cholesky_transform_bit_for_bit(self, rng):
        spec = KernelSpec("matern", 0.4, nu=1.5)
        prior = gram(spec, range(30), rng.uniform(0, 1, (30, 2)))
        expected = (np.linalg.cholesky(jittered(prior.values))
                    @ np.random.default_rng(7).standard_normal(30))
        truth = sample_gp_truth(prior, 7)
        assert truth.tobytes() == expected.tobytes()

    def test_truth_is_a_read_only_vector_over_positions(self, rng):
        truth = draw_truth(KernelSpec("gaussian", 0.5), rng.uniform(0, 1, (4, 2)), 3)
        assert truth.shape == (4,) and truth.dtype == np.float64
        assert not truth.flags.writeable

    def test_truth_is_read_at_each_id_position(self, rng):
        grid = rng.uniform(0, 1, (4, 2))
        state, truth = prior_of(KernelSpec("gaussian", 0.5), grid[::-1], 1e-12, [3, 2, 1, 0])
        oracle = labeled_oracle(state, truth, seed=0)
        np.testing.assert_allclose([oracle(i) for i in (3, 2, 1, 0)], truth, atol=1e-5)


class TestLabeledOracle:
    def test_tiny_noise_recovers_truth(self, rng):
        state, truth = prior_of(KernelSpec("gaussian", 0.5), rng.uniform(0, 1, (3, 1)), 1e-12)
        oracle = labeled_oracle(state, truth, seed=2)
        np.testing.assert_allclose(oracle(0), truth[0], atol=1e-5)

    def test_noise_variance_matches_model(self):
        state, truth = prior_of(KernelSpec("linear"), [[2.0]], 0.49)
        oracle = labeled_oracle(state, truth, seed=5)
        draws = np.array([oracle(0) for _ in range(10_000)])
        assert abs(draws.var() - 0.49) < 0.03

    def test_noise_is_serially_uncorrelated(self):
        state, truth = prior_of(KernelSpec("linear"), [[1.5]], 1.0)
        oracle = labeled_oracle(state, truth, seed=7)
        n = 10_000
        draws = np.array([oracle(0) for _ in range(n)]) - truth[0]
        lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(lag1) < 3 / np.sqrt(n)

    def test_noise_vector_is_read_in_position_order(self, rng):
        state, truth = prior_of(KernelSpec("gaussian", 0.5), rng.uniform(0, 1, (4, 2)),
                                [1e-12, 1e-12, 0.49, 1e-12], [3, 2, 1, 0])
        oracle = labeled_oracle(state, truth, seed=5)
        np.testing.assert_allclose([oracle(i) for i in (3, 2, 0)], truth[[0, 1, 3]],
                                   atol=1e-5)
        draws = np.array([oracle(1) for _ in range(10_000)])
        assert abs(draws.var() - 0.49) < 0.03

    def test_seeded_determinism(self):
        state, truth = prior_of(KernelSpec("linear"), [[1.0]], 0.3)
        a = labeled_oracle(state, truth, seed=11)
        b = labeled_oracle(state, truth, seed=11)
        assert [a(0) for _ in range(5)] == [b(0) for _ in range(5)]

    def test_unknown_index(self):
        state, truth = prior_of(KernelSpec("linear"), [[1.0]], 0.3)
        oracle = labeled_oracle(state, truth, seed=1)
        with pytest.raises(DataError):
            oracle(99)

    def test_labels_are_the_id_keyed_truth_plus_noise_bit_for_bit(self, rng):
        # ids that are not their positions: each label must read its own id's truth and noise
        ids, noise = [30, 10, 20, 0], [0.1, 0.2, 0.3, 0.4]
        state, truth = prior_of(KernelSpec("gaussian", 0.5), rng.uniform(0, 1, (4, 2)),
                                noise, ids)
        by_id = {i: (float(truth[p]), noise[p]) for p, i in enumerate(ids)}
        oracle, draws = labeled_oracle(state, truth, seed=4), np.random.default_rng(4)
        for index in (0, 20, 30, 10, 0):
            value, var = by_id[index]
            assert oracle(index) == value + np.sqrt(var) * float(draws.standard_normal())

    @pytest.mark.parametrize("truth", [np.zeros(3), np.zeros(5), np.zeros((4, 1)),
                                       {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0}, [0.0, np.nan, 0.0, 0.0]],
                             ids=["short", "long", "column", "dict", "nan"])
    def test_truth_must_be_one_finite_value_per_position(self, rng, truth):
        state, _ = prior_of(KernelSpec("gaussian", 0.5), rng.uniform(0, 1, (4, 2)), 0.1)
        with pytest.raises(InputError, match="truth needs 4 finite values"):
            labeled_oracle(state, truth, seed=0)


def make_record(rounds, rng):
    record = RunRecord(config={"rule": "itl", "seed": 4})
    for n in range(rounds + 1):
        record.append(RoundEntry(
            round=n, chosen=tuple(int(i) for i in rng.integers(0, 50, size=3)),
            objectives=tuple(float(v) for v in rng.standard_normal(3)),
            mean_variance=float(rng.uniform(0, 1)),
            max_variance=float(rng.uniform(1, 2)),
            relevant_picks=int(rng.integers(0, 4)),
            distinct_relevant=int(rng.integers(0, 40)),
            rmse=None if n % 5 == 0 else float(rng.uniform(0, 1))))
    return record


class TestRunRecords:
    def test_empty_run_round_trips(self, tmp_path):
        record = RunRecord(config={"note": "empty"})
        path = tmp_path / "run.jsonl"
        persist_run(record, str(path))
        loaded = load_run(str(path))
        assert loaded.config == {"note": "empty"}
        assert loaded.rounds == []

    def test_hundred_rounds_bit_exact(self, tmp_path, rng):
        record = make_record(100, rng)
        path = tmp_path / "run.jsonl"
        persist_run(record, str(path))
        loaded = load_run(str(path))
        assert loaded.rounds == record.rounds
        assert loaded.config == record.config
        persist_run(loaded, str(tmp_path / "again.jsonl"))
        assert (tmp_path / "run.jsonl").read_bytes() == \
            (tmp_path / "again.jsonl").read_bytes()

    def test_corrupted_file_raises_cleanly(self, tmp_path, rng):
        path = tmp_path / "run.jsonl"
        persist_run(make_record(5, rng), str(path))
        blob = path.read_text().splitlines()
        blob[3] = blob[3][:10] + "garbage"
        path.write_text("\n".join(blob))
        with pytest.raises(ParseError, match=":4"):
            load_run(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"config":{},"version":"v9"}\n')
        with pytest.raises(DataError, match="v9"):
            load_run(str(path))

    def test_rounds_strictly_increasing(self, rng):
        record = make_record(2, rng)
        with pytest.raises(InputError):
            record.append(record.rounds[-1])


class TestTables:
    def test_round_trip(self, tmp_path, rng):
        header = ["name", "value", "count", "maybe"]
        rows = [["a", float(rng.standard_normal()), 3, None],
                ["b", 1e-17, -2, "text"]]
        path = tmp_path / "t.tsv"
        save_table(str(path), header, rows)
        got_header, got_rows = load_table(str(path))
        assert got_header == header
        assert got_rows == rows

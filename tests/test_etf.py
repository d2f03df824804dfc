"""Frame construction, verification, scaling, and serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etfnc.cli import EXIT_OK, main
from etfnc.etf import (
    frame_from_json_dict,
    frame_to_json_dict,
    generate_etf,
    random_semi_orthogonal,
    scale_classifier,
    uniform_classifier,
    verify_etf,
)
from oracles import frame_from_csv_text


class TestRandomSemiOrthogonal:
    def test_orthonormal_columns(self):
        p = random_semi_orthogonal(3, 3, seed=0)
        np.testing.assert_allclose(p.T @ p, np.eye(3), atol=1e-10)

    def test_deterministic_bitwise(self):
        a = random_semi_orthogonal(8, 4, seed=7)
        b = random_semi_orthogonal(8, 4, seed=7)
        assert np.array_equal(a, b)

    def test_sign_convention(self):
        p = random_semi_orthogonal(6, 4, seed=3)
        for j in range(4):
            first_nonzero = p[np.flatnonzero(p[:, j])[0], j]
            assert first_nonzero > 0

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            random_semi_orthogonal(2, 4, seed=0)

    def test_different_seeds_differ(self):
        assert not np.allclose(
            random_semi_orthogonal(8, 4, seed=0), random_semi_orthogonal(8, 4, seed=1)
        )


class TestGenerateEtf:
    def test_gram_structure_d3_k4(self):
        frame = generate_etf(3, 4, seed=1)
        gram = frame.gram()
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-10)
        off = gram[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 3.0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 6), st.integers(0, 2**32 - 1))
    def test_gram_structure_random_shapes(self, K, extra, seed):
        frame = generate_etf(K - 1 + extra, K, seed)
        target = K / (K - 1) * np.eye(K) - 1.0 / (K - 1)
        np.testing.assert_allclose(frame.columns.T @ frame.columns, target, rtol=0, atol=1e-10)

    def test_k2_antipodal_scalars(self):
        frame = generate_etf(1, 2, seed=0)
        assert frame.columns.shape == (1, 2)
        np.testing.assert_allclose(np.abs(frame.columns), 1.0, atol=1e-10)
        np.testing.assert_allclose(frame.gram()[0, 1], -1.0, atol=1e-10)

    def test_d9_k10_offdiagonal(self):
        frame = generate_etf(9, 10, seed=3)
        off = frame.gram()[~np.eye(10, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / 9.0, atol=1e-10)

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            generate_etf(2, 4, seed=0)

    def test_deterministic(self):
        assert np.array_equal(generate_etf(5, 4, 9).columns, generate_etf(5, 4, 9).columns)

    def test_columns_sum_to_zero(self):
        for d, K, s in [(3, 4, 1), (9, 10, 2), (64, 16, 5), (1, 2, 0)]:
            frame = generate_etf(d, K, s)
            assert np.abs(frame.columns.sum(axis=1)).max() < 1e-9

    @pytest.mark.parametrize("K", [2, 3, 8, 33, 64])
    def test_gram_target_sweep(self, K):
        for d in (K - 1, K, 2 * K):
            for seed in range(5):
                frame = generate_etf(d, K, seed)
                dev = np.abs(frame.gram() - frame.gram_target()).max()
                assert dev < 1e-10, (d, K, seed, dev)


class TestVerifyEtf:
    def test_passes_own_construction(self):
        report = verify_etf(generate_etf(3, 4, 1), tol=1e-9)
        assert report.passed
        assert report.max_deviation < 1e-10

    def test_scaled_column_fails_on_diagonal(self):
        frame = generate_etf(3, 4, 1)
        cols = frame.columns.copy()
        cols[:, 2] *= 1.01
        report = verify_etf(replace(frame, columns=cols), tol=1e-9)
        assert not report.passed
        assert report.worst_row == report.worst_col == 2

    def test_duplicated_column_offdiagonal_deviation(self):
        frame = generate_etf(3, 4, 1)
        cols = frame.columns.copy()
        cols[:, 1] = cols[:, 0]
        report = verify_etf(replace(frame, columns=cols), tol=1e-9)
        assert not report.passed
        # cos 1 against target -1/(K-1)
        np.testing.assert_allclose(report.max_deviation, 1.0 + 1.0 / 3.0, atol=1e-12)
        assert {report.worst_row, report.worst_col} == {0, 1}


class TestScaleClassifier:
    def test_identity_scaling(self):
        frame = generate_etf(3, 4, 1)
        clf = scale_classifier(frame, np.ones(4))
        np.testing.assert_allclose(
            clf.scaled_columns.T @ clf.scaled_columns, frame.gram_target(), atol=1e-10
        )

    def test_uniform_length_two(self):
        frame = generate_etf(5, 4, 2)
        clf = scale_classifier(frame, np.full(4, 2.0))
        gram = clf.scaled_columns.T @ clf.scaled_columns
        np.testing.assert_allclose(np.diag(gram), 4.0, atol=1e-9)
        np.testing.assert_allclose(gram[~np.eye(4, dtype=bool)], 4.0 * (-1.0 / 3.0), atol=1e-9)

    def test_class_weight_lengths(self):
        # N/(K n_k) for n=(90,10), N=100, K=2
        frame = generate_etf(4, 2, 0)
        lengths = np.array([100 / (2 * 90), 100 / (2 * 10)])
        np.testing.assert_allclose(lengths, [0.55555555555555558, 5.0])
        clf = scale_classifier(frame, lengths)
        np.testing.assert_allclose(
            np.linalg.norm(clf.scaled_columns, axis=0), lengths, atol=1e-10
        )

    def test_column_norms_match_lengths(self):
        frame = generate_etf(6, 5, 4)
        lengths = np.array([0.5, 1.0, 2.0, 3.0, 0.1])
        clf = scale_classifier(frame, lengths)
        np.testing.assert_allclose(
            np.linalg.norm(clf.scaled_columns, axis=0), lengths, atol=1e-10
        )
        assert not clf.is_uniform()

    def test_nonpositive_length_rejected(self):
        frame = generate_etf(3, 4, 1)
        with pytest.raises(ValueError):
            scale_classifier(frame, [1.0, 0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            scale_classifier(frame, [1.0, -1.0, 1.0, 1.0])

    def test_uniform_helper_e_w(self):
        clf = uniform_classifier(generate_etf(3, 4, 1), e_w=4.0)
        assert clf.is_uniform()
        np.testing.assert_allclose(clf.e_w, 4.0)


class TestSerialization:
    def test_json_roundtrip_exact(self):
        frame = generate_etf(7, 5, 42)
        text = json.dumps(frame_to_json_dict(frame))
        back = frame_from_json_dict(json.loads(text))
        assert back.rotation_seed == frame.rotation_seed
        assert back.dim == frame.dim and back.num_classes == frame.num_classes
        assert np.array_equal(back.columns, frame.columns)

    @staticmethod
    def frame_csv(tmp_path, d, K, seed):
        """The frame.csv text that ``etfnc etf`` writes."""
        argv = ["etf", f"--d={d}", f"--K={K}", f"--seed={seed}", f"--out={tmp_path}"]
        assert main(argv) == EXIT_OK
        return (tmp_path / "frame.csv").read_text()

    def test_csv_roundtrip(self, tmp_path):
        frame = generate_etf(6, 4, 11)
        back = frame_from_csv_text(self.frame_csv(tmp_path, 6, 4, 11), rotation_seed=11)
        assert back.columns.shape == frame.columns.shape
        assert np.abs(back.columns - frame.columns).max() < 1e-15

    def test_csv_one_column_per_line(self, tmp_path):
        lines = self.frame_csv(tmp_path, 3, 4, 1).strip().splitlines()
        assert len(lines) == 4
        assert all(len(line.split(",")) == 3 for line in lines)

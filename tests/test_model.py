import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslearn.errors import DimensionMismatchError, GenerationFailedError
from reslearn.model import (
    GaussianIid,
    GaussUniformMixture,
    NetworkGenSpec,
    ResidualUnit,
    SampleSet,
    derive_seed,
    forward_batch,
    generate_unit,
    is_scale_row,
    load_samples_csv,
    load_unit_json,
    make_rng,
    sample,
    save_samples_csv,
    save_unit_json,
    scale_rows,
    standard_mixture,
)

# non-scale, full-rank reference teacher used throughout the suite
A_REF = np.array([[1.0, 1.0], [1.0, 2.0]])
B_REF = np.eye(2)


class TestSeeds:
    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x", 2.5) == derive_seed(1, "x", 2.5)

    def test_derive_seed_distinguishes_parts(self):
        seen = {derive_seed(i) for i in range(100)}
        assert len(seen) == 100
        assert derive_seed(1) != derive_seed(1.0)  # int and float label differently
        assert derive_seed("a", "b") != derive_seed("ab")

    def test_derive_seed_fits_in_63_bits(self):
        for parts in [(0,), ("teacher", 4, 1), (1, 2, 3.0, "x")]:
            s = derive_seed(*parts)
            assert 0 <= s < 2**63

    def test_make_rng_deterministic(self):
        a = make_rng(42).normal(size=5)
        b = make_rng(42).normal(size=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, make_rng(43).normal(size=5))


class TestResidualUnit:
    def test_valid_construction(self):
        unit = ResidualUnit(a=A_REF, b=B_REF)
        assert unit.d == 2 and unit.m == 2

    def test_negative_first_layer_rejected(self):
        with pytest.raises(ValueError):
            ResidualUnit(a=[[1.0, -0.5], [0.0, 1.0]], b=B_REF)

    def test_tiny_negative_slack_tolerated(self):
        ResidualUnit(a=[[1.0, -1e-9], [0.0, 1.0]], b=B_REF)

    @given(st.floats(1e-6, 1e6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_slack_verdict_is_scale_free(self, s, small):
        # the bound is 1e-6 of the largest weight, so scaling a by s > 0
        # keeps the verdict
        a = s * np.array([[1.0, -1e-7 if small else -1e-5], [0.5, 1.0]])
        if small:
            ResidualUnit(a=a, b=B_REF)
        else:
            with pytest.raises(ValueError):
                ResidualUnit(a=a, b=B_REF)

    def test_rectangular_first_layer_rejected(self):
        with pytest.raises(DimensionMismatchError):
            ResidualUnit(a=np.ones((2, 3)), b=B_REF)

    def test_second_layer_width_must_match(self):
        with pytest.raises(DimensionMismatchError):
            ResidualUnit(a=A_REF, b=np.ones((2, 3)))

    def test_wide_second_layer_rejected(self):
        # m >= d required: a 1 x 2 second layer cannot left-invert
        with pytest.raises(DimensionMismatchError):
            ResidualUnit(a=A_REF, b=np.ones((1, 2)))

    def test_tall_second_layer_accepted(self):
        unit = ResidualUnit(a=A_REF, b=np.vstack([B_REF, [1.0, 1.0]]))
        assert unit.m == 3

    def test_rank_deficient_warns(self):
        with pytest.warns(UserWarning, match="rank deficient"):
            ResidualUnit(a=[[1.0, 1.0], [1.0, 1.0]], b=B_REF)


class TestForward:
    def test_hand_computed_values(self):
        unit = ResidualUnit(a=A_REF, b=B_REF)
        xs = np.array([
            [1.0, -1.0],  # A x = (0, -1), relu -> (0, 0), y = x
            [1.0, 1.0],  # A x = (2, 3), y = (3, 4)
            [-2.0, -3.0],  # all-negative orthant: relu dead, y = B x
        ])
        np.testing.assert_allclose(
            forward_batch(unit.a, unit.b, xs), [[1.0, -1.0], [3.0, 4.0], [-2.0, -3.0]]
        )

    def test_batch_agrees_with_single(self):
        g = make_rng(7)
        unit = generate_unit(NetworkGenSpec(d=3, m=4, seed=11))
        xs = g.normal(size=(20, 3))
        batch = forward_batch(unit.a, unit.b, xs)
        for i in range(20):
            single = forward_batch(unit.a, unit.b, xs[i : i + 1])
            np.testing.assert_allclose(batch[i], single[0], atol=1e-12)


class TestScaleRows:
    def test_reference_teacher_has_none(self):
        assert scale_rows(A_REF) == []

    def test_diagonal_matrix_all_rows(self):
        assert scale_rows(np.diag([1.0, 2.0, 3.0])) == [0, 1, 2]

    def test_mixed(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert not is_scale_row(a, 0)
        assert is_scale_row(a, 1)
        assert scale_rows(a) == [1]

    def test_d1_always_scale(self):
        assert scale_rows(np.array([[2.0]])) == [0]


class TestDistributions:
    def test_shapes_and_determinism(self):
        for dist in (GaussianIid(dim=3), GaussUniformMixture(dim=3)):
            a = dist.draw(make_rng(5), 100)
            b = dist.draw(make_rng(5), 100)
            assert a.shape == (100, 3)
            np.testing.assert_array_equal(a, b)

    def test_mixture_moments(self):
        # mean of the equal mixture: (-0.1 + 0.1)/2 = 0
        draws = standard_mixture(2).draw(make_rng(2), 200_000)
        assert abs(draws.mean()) < 0.01
        # variance: 0.5*(1 + 0.1^2) + 0.5*(2^2/12 + 0.1^2) = 0.6817 (approx)
        assert np.var(draws) == pytest.approx(0.6817, abs=0.02)

    def test_mixture_takes_both_branches(self):
        draws = standard_mixture(1).draw(make_rng(3), 10_000).ravel()
        assert (np.abs(draws) > 1.2).any()  # outside uniform support: gaussian branch
        assert (np.abs(draws) <= 1.1).sum() > 5_000  # uniform branch mass


class TestSample:
    def setup_method(self):
        self.unit = ResidualUnit(a=A_REF, b=B_REF)
        self.dist = standard_mixture(2)

    def test_noiseless_outputs_exact(self):
        s = sample(self.unit, self.dist, 50, 0.0, seed=9)
        np.testing.assert_array_equal(s.ys, forward_batch(A_REF, B_REF, s.xs))
        assert s.noise_sigma == 0.0 and s.seed == 9

    def test_deterministic(self):
        s1 = sample(self.unit, self.dist, 30, 0.1, seed=4)
        s2 = sample(self.unit, self.dist, 30, 0.1, seed=4)
        np.testing.assert_array_equal(s1.xs, s2.xs)
        np.testing.assert_array_equal(s1.ys, s2.ys)

    def test_inputs_do_not_depend_on_sigma(self):
        clean = sample(self.unit, self.dist, 30, 0.0, seed=4)
        noisy = sample(self.unit, self.dist, 30, 0.5, seed=4)
        np.testing.assert_array_equal(clean.xs, noisy.xs)

    def test_noise_magnitude(self):
        sigma = 0.3
        clean = sample(self.unit, self.dist, 20_000, 0.0, seed=6)
        noisy = sample(self.unit, self.dist, 20_000, sigma, seed=6)
        noise = noisy.ys - clean.ys
        assert noise.std() == pytest.approx(sigma, rel=0.05)
        assert abs(noise.mean()) < 0.01

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample(self.unit, self.dist, 0, 0.0, seed=1)
        with pytest.raises(ValueError):
            sample(self.unit, self.dist, 5, -0.1, seed=1)
        with pytest.raises(DimensionMismatchError):
            sample(self.unit, standard_mixture(3), 5, 0.0, seed=1)

    def test_sample_set_validates(self):
        with pytest.raises(DimensionMismatchError):
            SampleSet(xs=np.zeros((3, 2)), ys=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            SampleSet(xs=np.zeros((3, 2)), ys=np.zeros((3, 2)), noise_sigma=-1.0)


class TestGenerateUnit:
    def test_deterministic_and_valid(self):
        spec = NetworkGenSpec(d=4, m=6, seed=13)
        u1, u2 = generate_unit(spec), generate_unit(spec)
        np.testing.assert_array_equal(u1.a, u2.a)
        np.testing.assert_array_equal(u1.b, u2.b)
        assert u1.a.min() >= 0.0
        assert u1.a.shape == (4, 4) and u1.b.shape == (6, 4)
        assert np.linalg.matrix_rank(u1.b) == 4

    def test_non_scale_rejection(self):
        for seed in range(5):
            unit = generate_unit(
                NetworkGenSpec(d=2, m=2, seed=seed, require_non_scale_transform=True)
            )
            assert scale_rows(unit.a) == []

    def test_d1_non_scale_impossible(self):
        with pytest.raises(GenerationFailedError):
            generate_unit(NetworkGenSpec(d=1, m=1, seed=0, require_non_scale_transform=True))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            generate_unit(NetworkGenSpec(d=0, m=1, seed=0))
        with pytest.raises(ValueError):
            generate_unit(NetworkGenSpec(d=3, m=2, seed=0))


class TestSerialization:
    def test_unit_roundtrip(self, tmp_path):
        unit = generate_unit(NetworkGenSpec(d=3, m=5, seed=21))
        path = tmp_path / "teacher.json"
        save_unit_json(path, unit)
        loaded = load_unit_json(path)
        np.testing.assert_array_equal(loaded.a, unit.a)
        np.testing.assert_array_equal(loaded.b, unit.b)

    def test_samples_roundtrip_exact(self, tmp_path):
        unit = generate_unit(NetworkGenSpec(d=2, m=3, seed=22))
        s = sample(unit, standard_mixture(2), 40, 0.05, seed=23)
        path = tmp_path / "samples.csv"
        save_samples_csv(path, s)
        loaded = load_samples_csv(path)
        np.testing.assert_array_equal(loaded.xs, s.xs)  # %.17g is lossless
        np.testing.assert_array_equal(loaded.ys, s.ys)
        assert loaded.noise_sigma == s.noise_sigma
        assert loaded.seed == 23

    def test_header_line_format(self, tmp_path):
        unit = ResidualUnit(a=A_REF, b=B_REF)
        s = sample(unit, standard_mixture(2), 4, 0.0, seed=7)
        path = tmp_path / "samples.csv"
        save_samples_csv(path, s)
        first = path.read_text().splitlines()[0]
        assert first.startswith("#")
        assert "d=2" in first and "m=2" in first and "n=4" in first
        assert "sigma=" in first and "seed=7" in first

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0,4.0\n")
        with pytest.raises(ValueError, match="header"):
            load_samples_csv(path)

    def test_truncated_data_raises(self, tmp_path):
        unit = ResidualUnit(a=A_REF, b=B_REF)
        s = sample(unit, standard_mixture(2), 4, 0.0, seed=7)
        path = tmp_path / "samples.csv"
        save_samples_csv(path, s)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_samples_csv(path)

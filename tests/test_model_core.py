import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparseblp.model_core import (
    ConfigurationError,
    Dataset,
    ModelConfig,
    Theta,
    canonicalize_gamma,
    config_from_dict,
    config_to_dict,
    group_index_matrix,
    load_config,
    load_dataset_csv,
    save_dataset_csv,
    save_model_config,
    validate_dataset,
)

from sparseblp.dgp import DgpConfig
from sparseblp.montecarlo import McConfig
from sparseblp.rgmm import RgmmOptions

from conftest import random_dataset, random_theta


def cfg(J=3, L=4, G=2, K=2, n=2, partition=(1, 1, 2, 2)):
    return ModelConfig(n_markets=n, J=J, L=L, G=G, K=K, partition=partition)


class TestModelConfig:
    def test_partition_must_be_total(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_markets=1, J=2, L=3, G=2, K=1, partition=(1, 1))

    def test_every_group_needs_a_member(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_markets=1, J=2, L=3, G=2, K=1, partition=(1, 1, 1))

    def test_labels_must_lie_in_range(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(n_markets=1, J=2, L=2, G=1, K=1, partition=(1, 3))

    def test_more_groups_than_attributes_rejected(self):
        with pytest.raises(ConfigurationError, match="G=3 exceeds L=2"):
            ModelConfig(n_markets=1, J=2, L=2, G=3, K=1, partition=(1, 2))

    def test_group_members(self):
        c = cfg()
        members = c.group_members
        assert [m.tolist() for m in members] == [[0, 1], [2, 3]]
        assert c.n_moments == 6


class TestTheta:
    def test_stacking_order_is_beta_then_gamma(self):
        th = Theta(beta=np.array([1.0, 2.0]), gamma=np.array([3.0, 4.0]))
        assert th.stacked().tolist() == [1.0, 2.0, 3.0, 4.0]
        back = Theta.from_stacked(th.stacked())
        assert back.beta.tolist() == [1.0, 2.0]
        assert back.gamma.tolist() == [3.0, 4.0]

    def test_unequal_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            Theta(beta=np.zeros(2), gamma=np.zeros(3))

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_stacked_vector_of_odd_length_or_not_1d_rejected(self, shape):
        with pytest.raises(ConfigurationError, match="stacked theta must have even length"):
            Theta.from_stacked(np.zeros(shape))

    def test_canonicalize_flips_negative_groups(self):
        c = cfg()
        th = Theta(beta=np.array([1.0, -1, 0, 0]), gamma=np.array([-2.0, 1.0, 0.5, 0.2]))
        out = canonicalize_gamma(th, c)
        # group 1 flips (largest |.| is -2), group 2 already positive
        assert out.gamma.tolist() == [2.0, -1.0, 0.5, 0.2]
        assert out.beta.tolist() == th.beta.tolist()
        # involution on already-canonical input
        again = canonicalize_gamma(out, c)
        assert np.array_equal(again.gamma, out.gamma)


class TestComputeIndices:
    """Group indices x_g'gamma_g from group_index_matrix on stacked attributes."""

    def test_zero_theta_gives_zero_indices(self, rng):
        c = cfg()
        ds = random_dataset(rng, c)
        nu = group_index_matrix(ds.X, Theta.zeros(c.L).gamma, c)
        assert nu.shape == (c.n_markets, c.J, c.G)
        assert np.all(nu == 0.0)

    def test_hand_example(self):
        c = ModelConfig(n_markets=1, J=1, L=2, G=1, K=1, partition=(1, 1))
        nu = group_index_matrix(np.array([[[1.0, 2.0]]]), np.array([0.5, 0.5]), c)
        assert nu[0, 0].tolist() == [1.5]

    def test_matches_bruteforce_loop(self, rng):
        c = cfg(J=3, L=4)
        ds = random_dataset(rng, c)
        th = random_theta(rng, c.L)
        nu = group_index_matrix(ds.X, th.gamma, c)
        for i in range(c.n_markets):
            for j in range(c.J):
                for g in range(1, c.G + 1):
                    manual = sum(ds.X[i, j, l] * th.gamma[l] for l in range(c.L) if c.partition[l] == g)
                    assert nu[i, j, g - 1] == pytest.approx(manual, abs=1e-12)

    def test_linearity_in_theta(self, rng):
        c = cfg()
        X = random_dataset(rng, c).X
        t1, t2 = random_theta(rng, c.L), random_theta(rng, c.L)
        lhs = group_index_matrix(X, 2 * t1.gamma - 3 * t2.gamma, c)
        rhs = 2 * group_index_matrix(X, t1.gamma, c) - 3 * group_index_matrix(X, t2.gamma, c)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_group_columns_local_to_their_cell(self, rng):
        c = cfg()
        X = random_dataset(rng, c).X
        th = random_theta(rng, c.L)
        bumped = th.gamma + np.array([0, 0, 1.0, 0])
        d = group_index_matrix(X, bumped, c) - group_index_matrix(X, th.gamma, c)
        assert np.all(d[..., 0] == 0.0)  # attribute 2 belongs to group 2
        assert np.any(d[..., 1] != 0.0)

    def test_group_index_matrix_agrees(self, rng):
        # the stacked (n, J, L) call matches one (J, L) call per market
        c = cfg()
        X = random_dataset(rng, c).X
        th = random_theta(rng, c.L)
        stacked = group_index_matrix(X, th.gamma, c)
        for i in range(c.n_markets):
            np.testing.assert_array_equal(stacked[i], group_index_matrix(X[i], th.gamma, c))


class TestValidateDataset:
    def test_well_formed_dataset_passes(self, rng):
        c = cfg()
        assert validate_dataset(random_dataset(rng, c)) == []

    def test_shares_summing_past_one_flagged(self, rng):
        c = cfg(J=2, L=4, K=2)
        ds = random_dataset(rng, c)
        S = ds.S.copy()
        S[0] = [0.6, 0.5]
        problems = validate_dataset(Dataset(config=c, X=ds.X, S=S, H=ds.H))
        assert problems == ["market_id 1: inside shares sum to 1.100000 >= 1"]

    def test_boundary_share_flagged(self, rng):
        c = cfg(J=2, L=4, K=2)
        ds = random_dataset(rng, c)
        S = ds.S.copy()
        S[1] = [0.0, 0.5]
        problems = validate_dataset(Dataset(config=c, X=ds.X, S=S, H=ds.H))
        assert problems == ["market_id 2: product_id [1] have shares outside (0, 1)"]

    def test_non_finite_values_flagged_per_market(self, rng):
        c = cfg(J=2, L=4, K=2)
        ds = random_dataset(rng, c)
        X, S, H = ds.X.copy(), ds.S.copy(), ds.H.copy()
        X[0, 1, 2] = np.inf
        H[1, 0, 0] = np.nan
        S[1, 1] = np.nan
        problems = validate_dataset(Dataset(config=c, X=X, S=S, H=H))
        assert problems == [
            "market_id 1: non-finite attribute values",
            "market_id 2: non-finite instrument values",
            "market_id 2: non-finite shares",
        ]


class TestDatasetShapes:
    def test_shapes_must_match_config(self, rng):
        c = cfg()
        ds = random_dataset(rng, c)
        with pytest.raises(ConfigurationError, match="X has shape"):
            Dataset(config=c, X=ds.X[:1], S=ds.S, H=ds.H)
        with pytest.raises(ConfigurationError, match="H has shape"):
            Dataset(config=c, X=ds.X, S=ds.S, H=ds.H[:, :, :1])
        with pytest.raises(ConfigurationError, match="xi_true has shape"):
            Dataset(config=c, X=ds.X, S=ds.S, H=ds.H, xi_true=np.zeros(c.J))

    def test_arrays_are_float_and_contiguous(self, rng):
        c = cfg()
        ds = random_dataset(rng, c)
        wide = np.concatenate([ds.X, ds.H], axis=2)
        view = Dataset(config=c, X=wide[:, :, : c.L], S=ds.S, H=wide[:, :, c.L :])
        assert view.X.flags.c_contiguous and view.H.flags.c_contiguous
        assert view.n == c.n_markets


class TestSerialization:
    def test_model_config_roundtrip(self, tmp_path):
        c = cfg()
        save_model_config(c, tmp_path / "m.json")
        assert load_config(ModelConfig, tmp_path / "m.json") == c

    def test_model_config_missing_key(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"n": 1, "J": 2}))
        with pytest.raises(ConfigurationError):
            load_config(ModelConfig, tmp_path / "m.json")

    def test_model_config_uses_n_markets_key(self, tmp_path):
        c = cfg()
        assert config_to_dict(c) == {
            "n_markets": 2, "J": 3, "L": 4, "G": 2, "K": 2, "partition": [1, 1, 2, 2]
        }
        legacy = dict(config_to_dict(c))
        legacy["n"] = legacy.pop("n_markets")
        with pytest.raises(ConfigurationError, match="missing \\['n_markets'\\], unknown \\['n'\\]"):
            config_from_dict(ModelConfig, legacy)

    @pytest.mark.parametrize(
        "field, value", [("J", "3"), ("L", 4.0), ("K", True), ("partition", [1, "2", 2, 2]),
                         ("partition", "1122")]
    )
    def test_model_config_rejects_bad_types(self, field, value):
        raw = config_to_dict(cfg())
        raw[field] = value
        with pytest.raises(ConfigurationError, match=field):
            config_from_dict(ModelConfig, raw)

    @given(
        J=st.integers(1, 6),
        K=st.integers(1, 6),
        n=st.integers(1, 500),
        labels=st.lists(st.integers(1, 3), min_size=1, max_size=8),
    )
    def test_model_config_dict_roundtrip(self, J, K, n, labels):
        G = max(labels)
        partition = tuple(sorted(set(range(1, G + 1))) + labels)
        c = ModelConfig(n_markets=n, J=J, L=len(partition), G=G, K=K, partition=partition)
        raw = json.loads(json.dumps(config_to_dict(c)))
        assert config_from_dict(ModelConfig, raw) == c

    def test_dataset_csv_roundtrip(self, rng, tmp_path):
        c = cfg()
        ds = random_dataset(rng, c)
        save_dataset_csv(ds, tmp_path / "d.csv")
        back = load_dataset_csv(tmp_path / "d.csv", c)
        for name in ("X", "S", "H"):
            np.testing.assert_array_equal(getattr(ds, name), getattr(back, name))
        assert back.xi_true is None

    def test_blank_lines_in_dataset_csv_are_skipped(self, rng, tmp_path):
        c = cfg()
        ds = random_dataset(rng, c)
        save_dataset_csv(ds, tmp_path / "d.csv")
        lines = (tmp_path / "d.csv").read_text().splitlines()
        (tmp_path / "d.csv").write_text("\n".join([lines[0], "", *lines[1:3], "", "", *lines[3:], ""]) + "\n")
        back = load_dataset_csv(tmp_path / "d.csv", c)
        for name in ("X", "S", "H"):
            np.testing.assert_array_equal(getattr(ds, name), getattr(back, name))

    def test_dataset_csv_format(self, tmp_path):
        c = ModelConfig(n_markets=2, J=1, L=1, G=1, K=1, partition=(1,))
        ds = Dataset(config=c, X=[[[0.5]], [[-1.0]]], S=[[0.25], [0.1]], H=[[[2.0]], [[1e-20]]])
        save_dataset_csv(ds, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == (
            b"market_id,product_id,share,x_1,h_1\r\n"
            b"1,1,0.25,0.5,2.0\r\n"
            b"2,1,0.1,-1.0,1e-20\r\n"
        )

    EDGES = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 1e22, math.nan, -math.inf, 1.0]

    @pytest.mark.parametrize("n", [1, 7])  # one market, and several written one after another
    def test_dataset_csv_bytes_are_csv_writers(self, rng, tmp_path, n):
        c = cfg(n=n)
        ds = random_dataset(rng, c)
        # the edge values land in S (as many as fit), X and H
        for arr in (ds.S, ds.X, ds.H):
            flat = arr.reshape(-1)
            flat[rng.permutation(flat.size)[: len(self.EDGES)]] = self.EDGES[: flat.size]
        save_dataset_csv(ds, tmp_path / "d.csv")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["market_id", "product_id", "share", "x_1", "x_2", "x_3", "x_4", "h_1", "h_2"])
            for i in range(n):
                for j in range(c.J):
                    values = [ds.S[i, j], *ds.X[i, j], *ds.H[i, j]]
                    writer.writerow([i + 1, j + 1, *(repr(float(v)) for v in values)])
        assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = load_dataset_csv(tmp_path / "d.csv", c)
        for name in ("X", "S", "H"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()

    def test_dataset_csv_loads_within_three_times_its_arrays(self, rng, tmp_path):
        # the wide-attribute-lp design: each row goes straight into its slot
        # of one preallocated array, so no per-market lists of Python floats
        # are held while the file is read
        c = ModelConfig(n_markets=100, J=4, L=40, G=1, K=10, partition=(1,) * 40)
        save_dataset_csv(random_dataset(rng, c), tmp_path / "d.csv")
        tracemalloc.start()
        try:
            back = load_dataset_csv(tmp_path / "d.csv", c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (back.S.nbytes + back.X.nbytes + back.H.nbytes)


# valid configs of every class read from JSON; float fields also take ints
nonneg = st.floats(0, 1e6) | st.integers(0, 10**6)
scales = st.lists(nonneg, min_size=1, max_size=4).map(tuple)


@st.composite
def model_configs(draw):
    labels = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    G = max(labels)
    partition = tuple(range(1, G + 1)) + tuple(labels)
    return ModelConfig(n_markets=draw(st.integers(1, 500)), J=draw(st.integers(1, 6)),
                       L=len(partition), G=G, K=draw(st.integers(1, 6)), partition=partition)


@st.composite
def dgp_configs(draw):
    model = draw(model_configs())
    return DgpConfig(model=model, s_beta=draw(st.integers(0, model.L)), s_gamma=draw(st.integers(0, model.L)),
                     signal=draw(nonneg), xi_sd=draw(nonneg), endog_corr=draw(st.floats(-0.99, 0.99)),
                     instrument_strength=draw(st.floats(0, 0.99)), seed=draw(st.integers(0, 2**64)))


mc_configs = st.builds(
    McConfig, dgp=dgp_configs(), replications=st.integers(1, 100),
    n_grid=st.lists(st.integers(1, 10**4), min_size=1, max_size=3, unique=True).map(tuple),
    alpha=st.floats(0.01, 0.99), lam_scale=st.floats(1e-3, 10),
    penalty_c_gamma=nonneg, relax_mu=st.booleans(), pilot_scales=scales,
    quad_nodes=st.integers(1, 20), workers=st.integers(1, 8),
)
rgmm_options = st.builds(RgmmOptions, lam=nonneg, pilot_scales=scales)
configs = st.one_of(model_configs(), dgp_configs(), mc_configs, rgmm_options)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestConfigReader:
    @given(configs)
    def test_config_dict_roundtrip(self, config):
        raw = json.loads(json.dumps(config_to_dict(config)))
        assert config_from_dict(type(config), raw) == config

    @given(configs, st.data())
    def test_one_arbitrary_field_gives_an_instance_or_configuration_error(self, config, data):
        raw = config_to_dict(config)
        raw[data.draw(st.sampled_from(sorted(raw)))] = data.draw(json_values)
        try:
            out = config_from_dict(type(config), raw)
        except ConfigurationError:
            return
        assert isinstance(out, type(config))

    def test_theta_block_is_a_list_of_finite_numbers(self):
        theta = config_from_dict(Theta, {"beta": [1, 2.5], "gamma": [0, -1e300]}, "theta")
        assert theta.stacked().tolist() == [1.0, 2.5, 0.0, -1e300]
        for bad in ([1, 10**400], [1, math.inf], [1, [2]], [True, 1]):
            with pytest.raises(ConfigurationError, match=re.escape("theta.beta must be a list of finite")):
                config_from_dict(Theta, {"beta": bad, "gamma": [0, 0]}, "theta")

"""Front-door verifier: surgery ground truth vs observational estimate."""

import dataclasses

import numpy as np
import pytest

import oracles
from nsplan.causal import (
    INTERVENABLE,
    VARIABLES,
    DiscreteSCM,
    confounded_example,
    from_mechanisms,
    front1_gap,
    front2_gap,
    frontdoor_estimate,
    frontdoor_gap,
    random_scm,
    surgery_distribution,
    surgery_marginal,
)


class TestConstruction:
    def test_variable_roles(self):
        assert VARIABLES == ("D", "T", "S_prev", "P", "S")
        assert INTERVENABLE == ("T", "S_prev", "P")

    def test_rows_must_sum_to_one(self):
        scm = random_scm(0)
        bad = [0.5] * len(scm.p_d) if len(scm.p_d) > 2 else [0.5, 0.6]
        with pytest.raises(ValueError, match="sum to 1"):
            dataclasses.replace(scm, p_d=bad)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            dataclasses.replace(confounded_example(), p_d=[1.5, -0.5])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            # the supports say S_prev has one value
            dataclasses.replace(confounded_example(), p_sprev=[0.5, 0.5])

    def test_unknown_value_lookup(self):
        with pytest.raises(ValueError, match="support"):
            confounded_example().index("T", "t9")

    def test_joint_sums_to_one(self):
        for seed in range(5):
            total = random_scm(seed).joint().sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_joint_matches_nested_loop_oracle(self):
        scm = random_scm(3)
        want = oracles.scm_joint_oracle(scm)
        got = scm.joint()
        for (d, t, v, p, s), value in want.items():
            idx = (
                scm.index("D", d),
                scm.index("T", t),
                scm.index("S_prev", v),
                scm.index("P", p),
                scm.index("S", s),
            )
            assert got[idx] == pytest.approx(value, abs=1e-12)


class TestSurgery:
    def test_distribution_is_normalized(self):
        scm = random_scm(1)
        t0 = scm.supports["T"][0]
        dist = surgery_distribution(scm, {"T": t0})
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle(self):
        for seed in range(6):
            scm = random_scm(seed)
            do = {"T": scm.supports["T"][0], "S_prev": scm.supports["S_prev"][-1]}
            got = surgery_distribution(scm, do)
            want = oracles.scm_surgery_oracle(scm, do)
            for s in scm.supports["S"]:
                assert got[s] == pytest.approx(want[s], abs=1e-12)

    def test_non_intervenable_rejected(self):
        with pytest.raises(ValueError, match="cannot intervene"):
            surgery_distribution(confounded_example(), {"D": "d0"})

    def test_marginal_of_intervened_variable_is_point_mass(self):
        scm = confounded_example()
        marg = surgery_marginal(scm, {"T": "t1"}, "T")
        assert marg == {"t0": 0.0, "t1": 1.0}

    def test_do_t_breaks_dependence_on_d(self):
        # Under do(T), the T marginal no longer varies with the confounder.
        scm = confounded_example()
        dist = surgery_distribution(scm, {"T": "t0"})
        alt = surgery_distribution(
            from_mechanisms(
                supports=scm.supports,
                p_d=[0.9, 0.1],  # very different confounder prior
                p_t_given_d=scm.p_t_given_d,
                p_sprev=scm.p_sprev,
                p_p_given_t_sprev=scm.p_p_given_t_sprev,
                p_s_given_p_d=scm.p_s[:, 0, 0, :, :],
            ),
            {"T": "t0"},
        )
        # Same mechanisms, same do: only the D prior changed, so the S
        # distribution may change, but both remain proper distributions.
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(alt.values()) == pytest.approx(1.0, abs=1e-12)


class TestConfoundedExample:
    def test_observational_vs_interventional_gap(self):
        scm = confounded_example()
        joint = scm.observational_joint()
        naive = joint.conditional_s_given_t("t1")
        truth = surgery_distribution(scm, {"T": "t1"})
        assert naive["s1"] == pytest.approx(0.82, abs=1e-12)
        assert truth["s1"] == pytest.approx(0.66, abs=1e-12)
        assert abs(naive["s1"] - truth["s1"]) >= 0.1

    def test_frontdoor_recovers_interventional(self):
        scm = confounded_example()
        joint = scm.observational_joint()
        do = {"T": "t1", "S_prev": "v0"}
        estimate = frontdoor_estimate(joint, do)
        truth = surgery_distribution(scm, do)
        for s in scm.supports["S"]:
            assert abs(estimate[s] - truth[s]) < 1e-9


class TestFrontDoorIdentity:
    def test_gap_vanishes_on_random_family(self):
        for seed in range(40):
            scm = random_scm(seed)
            assert frontdoor_gap(scm) < 1e-9, seed

    def test_front1_front2_hold(self):
        for seed in range(15):
            scm = random_scm(seed)
            assert front1_gap(scm) < 1e-9, seed
            assert front2_gap(scm) < 1e-9, seed

    def test_front1_fails_when_sprev_influences_t(self):
        # Rewire so the S mechanism depends on S_prev: front-door itself can
        # break because P no longer screens off S from its other parents.
        scm = confounded_example()
        p_s = scm.p_s.copy()
        # Make S ignore P and follow T directly (violates P->S mediation).
        p_s[:, 0, :, :, :] = [[[0.99, 0.01], [0.99, 0.01]]]
        p_s[:, 1, :, :, :] = [[[0.01, 0.99], [0.01, 0.99]]]
        broken = DiscreteSCM(
            supports=scm.supports,
            p_d=scm.p_d,
            p_t_given_d=scm.p_t_given_d,
            p_sprev=scm.p_sprev,
            p_p_given_t_sprev=scm.p_p_given_t_sprev,
            p_s=p_s,
        )
        assert frontdoor_gap(broken) > 1e-3

    def test_matches_frontdoor_oracle(self):
        for seed in range(8):
            scm = random_scm(seed)
            joint = scm.observational_joint()
            do_t = scm.supports["T"][0]
            do_v = scm.supports["S_prev"][0]
            got = frontdoor_estimate(joint, {"T": do_t, "S_prev": do_v})
            want = oracles.frontdoor_oracle(scm, do_t, do_v)
            for s in scm.supports["S"]:
                assert got[s] == pytest.approx(want[s], abs=1e-12)


class TestZeroProbability:
    def test_zero_conditioning_event_named(self):
        # S_prev deterministically v0 makes conditioning on v1 impossible.
        supports = {
            "D": ("d0",),
            "T": ("t0",),
            "S_prev": ("v0", "v1"),
            "P": ("p0",),
            "S": ("s0",),
        }
        scm = from_mechanisms(
            supports=supports,
            p_d=[1.0],
            p_t_given_d=[[1.0]],
            p_sprev=[1.0, 0.0],
            p_p_given_t_sprev=[[[1.0], [1.0]]],
            p_s_given_p_d=[[[1.0]]],
        )
        joint = scm.observational_joint()
        with pytest.raises(ValueError, match=r"T=t0, S_prev=v1 has zero probability"):
            frontdoor_estimate(joint, {"T": "t0", "S_prev": "v1"})

    def test_estimate_requires_exactly_t_and_sprev(self):
        joint = confounded_example().observational_joint()
        with pytest.raises(ValueError, match="exactly"):
            frontdoor_estimate(joint, {"T": "t0"})

    def test_conditional_on_impossible_t(self):
        supports = {
            "D": ("d0",),
            "T": ("t0", "t1"),
            "S_prev": ("v0",),
            "P": ("p0",),
            "S": ("s0",),
        }
        scm = from_mechanisms(
            supports=supports,
            p_d=[1.0],
            p_t_given_d=[[1.0, 0.0]],
            p_sprev=[1.0],
            p_p_given_t_sprev=[[[1.0]], [[1.0]]],
            p_s_given_p_d=[[[1.0]]],
        )
        with pytest.raises(ValueError, match=r"T=t1 has zero probability"):
            scm.observational_joint().conditional_s_given_t("t1")


class TestRandomFamily:
    def test_seed_reproducibility(self):
        a, b = random_scm(123), random_scm(123)
        assert a.supports == b.supports
        assert np.array_equal(a.p_s, b.p_s)

    def test_supports_bounded(self):
        for seed in range(20):
            scm = random_scm(seed)
            assert all(2 <= len(v) <= 4 for v in scm.supports.values())

    def test_positivity_floor(self):
        for seed in range(10):
            scm = random_scm(seed)
            for table in (scm.p_d, scm.p_t_given_d, scm.p_sprev, scm.p_p_given_t_sprev, scm.p_s):
                assert table.min() >= 0.01 - 1e-12

import pytest

from equisep import cli
from equisep.conditions import (
    check_ic,
    check_rc,
    integers,
    prime_field,
    sphere,
    stage_report,
)
from equisep.group_core import (
    cyclic_group,
    make_group,
    subgroup_conjugacy_classes,
)


def class_of_order(g, order):
    matches = [c for c in subgroup_conjugacy_classes(g) if c.order == order]
    assert len(matches) == 1
    return matches[0]


class TestDescriptors:
    def test_prime_field_rejects_composites(self):
        with pytest.raises(ValueError):
            prime_field(4)
        with pytest.raises(ValueError):
            prime_field(1)
        assert prime_field(2).name == "F2"

    def test_prime_field_large_inputs(self):
        assert prime_field(1000000007).name == "F1000000007"
        assert prime_field(2**61 - 1).name == f"F{2**61 - 1}"
        # strong pseudoprimes to every prime base up to 31, and up to 37
        for composite in (3825123056546413051, 318665857834031151167461,
                          1000000007 * 998244353):
            with pytest.raises(ValueError, match="not prime"):
                prime_field(composite)
        with pytest.raises(ValueError, match="too large"):
            prime_field(3317044064679887385961981)

    def test_names_and_flags(self):
        s = sphere()
        z = integers()
        f5 = prime_field(5)
        assert s.burnside_unit and not z.burnside_unit and not f5.burnside_unit
        assert s.separably_closed and z.separably_closed
        assert not f5.separably_closed
        assert (s.kind, z.kind, f5.kind) == ("sphere", "integers", "prime_field")
        assert (s.char, z.char, f5.char) == (0, 0, 5)
        assert (s.name, z.name, f5.name) == ("sphere", "Z", "F5")

    def test_descriptor_equality_ignores_callables(self):
        assert prime_field(5) == prime_field(5)
        assert prime_field(5) != prime_field(7)
        assert sphere() == sphere()


class TestIndecomposabilityCheck:
    def test_trivial_weyl_is_convention(self):
        res = check_ic(sphere(), 1)
        assert res.ok and res.convention

    def test_sphere_wants_nontrivial_p_groups(self):
        assert check_ic(sphere(), 4).ok
        assert check_ic(sphere(), make_group("Q8").order).ok
        res = check_ic(sphere(), 6)
        assert not res.ok
        assert "not a nontrivial p-group" in res.rule

    def test_integers_want_prime_power_orders(self):
        assert check_ic(integers(), 4).ok
        assert check_ic(integers(), 9).ok
        assert not check_ic(integers(), 6).ok

    def test_prime_field_wants_matching_characteristic(self):
        assert check_ic(prime_field(2), 4).ok
        assert check_ic(prime_field(2), 6).ok
        assert not check_ic(prime_field(3), 4).ok


class TestRetractionCheck:
    def test_sphere_delegates_to_integers(self):
        res = check_rc(sphere(), 6)
        assert res.ok
        assert res.rule.startswith("delegated to Z:")

    def test_integers_always_pass_nontrivial_stages(self):
        for n in (2, 3, 4, 6):
            assert check_rc(integers(), n).ok

    def test_prime_field_own_prime_passes(self):
        res = check_rc(prime_field(5), 5)
        assert res.ok

    def test_prime_field_other_prime_fails(self):
        res = check_rc(prime_field(5), 2)
        assert not res.ok
        assert "2" in res.rule and "invertible" in res.rule


class TestStageReports:
    def test_c4_sphere_stages_all_pass(self):
        g = cyclic_group(4)
        for cls in subgroup_conjugacy_classes(g):
            rep = stage_report(cls, sphere())
            assert rep.passed
            assert rep.sep_closed

    def test_c6_sphere_bottom_stage_fails_ic(self):
        g = cyclic_group(6)
        rep = stage_report(class_of_order(g, 1), sphere())
        assert not rep.ic.ok
        assert rep.rc.ok
        assert not rep.passed

    def test_c6_sphere_c2_stage_passes(self):
        g = cyclic_group(6)
        rep = stage_report(class_of_order(g, 2), sphere())
        assert rep.weyl.order == 3
        assert rep.passed

    def test_top_stage_is_convention(self):
        g = make_group("S3")
        rep = stage_report(class_of_order(g, 6), sphere())
        assert rep.passed
        assert rep.ic.convention and rep.rc.convention
        flags = cli._stage(rep)["convention_flags"]
        assert flags == ["ic-convention", "rc-convention"]

    def test_json_schema(self):
        g = cyclic_group(6)
        payload = cli._stage(stage_report(class_of_order(g, 1), sphere()))
        assert set(payload) == {
            "subgroup", "weyl_order", "ic", "rc", "sep_closed",
            "reasons", "convention_flags",
        }
        assert payload["subgroup"] == "1a"
        assert payload["weyl_order"] == 6
        assert payload["ic"] is False and payload["rc"] is True
        assert any(r.startswith("ic:") for r in payload["reasons"])
        assert any(r.startswith("rc:") for r in payload["reasons"])

    def test_prime_field_stage_not_separably_closed(self):
        g = cyclic_group(5)
        rep = stage_report(class_of_order(g, 1), prime_field(5))
        assert rep.passed
        assert not rep.sep_closed

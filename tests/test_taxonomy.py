"""Tests for the NI/CNI taxonomy parser and device factory."""

import pytest

from repro.ni import (
    CdrNI,
    CoherentQueueNI,
    TaxonomyError,
    UncachedNI,
    available_devices,
    classify_existing_machines,
    device_class,
    parse_ni_name,
    register_device,
    unregister_device,
    validate_ni_kwargs,
)
from repro.ni.base import AbstractNI
from repro.ni.taxonomy import EVALUATED_DEVICES


class TestParser:
    def test_ni2w(self):
        spec = parse_ni_name("NI2w")
        assert not spec.coherent
        assert spec.exposed_size == 2
        assert spec.unit == "words"
        assert spec.queue is None
        assert spec.home == "device"
        assert spec.exposed_blocks is None

    def test_cni4(self):
        spec = parse_ni_name("CNI4")
        assert spec.coherent
        assert spec.exposed_size == 4
        assert spec.unit == "blocks"
        assert spec.queue is None
        assert spec.exposed_blocks == 4

    def test_cni16q(self):
        spec = parse_ni_name("CNI16Q")
        assert spec.coherent and spec.queue == "Q" and spec.home == "device"

    def test_cni512q(self):
        spec = parse_ni_name("CNI512Q")
        assert spec.exposed_size == 512 and spec.queue == "Q"

    def test_cni16qm(self):
        spec = parse_ni_name("CNI16Qm")
        assert spec.queue == "Qm"
        assert spec.home == "memory"

    def test_paper_classification_of_existing_machines(self):
        machines = classify_existing_machines()
        assert machines["TMC CM-5"] == "NI2w"
        assert parse_ni_name(machines["MIT Alewife"]).exposed_size == 16
        assert parse_ni_name(machines["MIT *T-NG"]).queue == "Q"

    @pytest.mark.parametrize("bad", ["", "XNI4", "CNI", "NI0", "CNIQ", "NI-4", "NI4Qx"])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(TaxonomyError):
            parse_ni_name(bad)

    def test_memory_home_requires_coherent_device(self):
        with pytest.raises(TaxonomyError):
            parse_ni_name("NI16Qm")

    # ------------------------------------------------------------------
    # Edge cases: every rejection names the offending grammar field.
    # ------------------------------------------------------------------
    def test_zero_size_names_size_field(self):
        with pytest.raises(TaxonomyError, match="size"):
            parse_ni_name("NI0")

    @pytest.mark.parametrize("aliased", ["NI04", "CNI016Q"])
    def test_leading_zero_sizes_rejected(self, aliased):
        """'NI04' must not alias 'NI4' into a distinct cacheable device."""
        with pytest.raises(TaxonomyError, match="leading zeros"):
            parse_ni_name(aliased)

    def test_word_sized_coherent_device_names_unit_field(self):
        with pytest.raises(TaxonomyError, match="unit"):
            parse_ni_name("CNI4w")

    @pytest.mark.parametrize("padded", [" NI2w", "NI2w ", "\tCNI16Qm\n"])
    def test_padded_names_rejected_with_canonical_hint(self, padded):
        """' NI2w' must not alias 'NI2w' into a distinct spec hash."""
        with pytest.raises(TaxonomyError, match=f"write {padded.strip()!r}"):
            parse_ni_name(padded)

    @pytest.mark.parametrize("bad", [5, None, ["NI2w"]])
    def test_non_string_names_rejected(self, bad):
        with pytest.raises(TaxonomyError, match="must be a string"):
            parse_ni_name(bad)

    @pytest.mark.parametrize("lower", ["cni4", "ni2W", "CNI16qm", "cNi16Q"])
    def test_lowercase_names_rejected_with_case_hint(self, lower):
        with pytest.raises(TaxonomyError, match="case-sensitive"):
            parse_ni_name(lower)

    @pytest.mark.parametrize("bad", ["NI4wQm", "NI4wQ"])
    def test_queue_suffix_on_word_sized_device_names_queue_field(self, bad):
        with pytest.raises(TaxonomyError, match="queue"):
            parse_ni_name(bad)

    def test_memory_home_on_uncoherent_device_names_queue_field(self):
        with pytest.raises(TaxonomyError, match="queue"):
            parse_ni_name("NI16Qm")

    def test_describe_mentions_key_attributes(self):
        text = parse_ni_name("CNI16Qm").describe()
        assert "coherent" in text and "16" in text and "memory" in text

    @pytest.mark.parametrize("name", EVALUATED_DEVICES)
    def test_parse_describe_round_trip(self, name):
        """parse_ni_name ↔ describe() round-trip for every evaluated device."""
        spec = parse_ni_name(name)
        # Re-parsing the spec's own name reproduces the spec exactly.
        assert parse_ni_name(spec.name) == spec
        text = spec.describe()
        assert text.startswith(f"{spec.name}:")
        assert str(spec.exposed_size) in text
        assert f"home={spec.home}" in text
        unit_word = "cache blocks" if spec.unit == "blocks" else "4-byte words"
        assert unit_word in text
        kind_word = "coherent" if spec.coherent else "uncached"
        assert kind_word in text


class TestFactory:
    def test_evaluated_devices_resolve_to_classes(self):
        """The paper's five are their plans' family classes, like any point."""
        assert device_class("NI2w") is UncachedNI
        assert device_class("CNI4") is CdrNI
        assert device_class("CNI16Q") is CoherentQueueNI
        assert device_class("CNI512Q") is CoherentQueueNI
        assert device_class("CNI16Qm") is CoherentQueueNI

    def test_any_legal_taxonomy_point_resolves(self):
        """Every legal name resolves to its plan's family class."""
        from repro.ni.registry import DeviceSpec

        for name in ("CNI1024Q", "NI16w", "NI128Q", "CNI64Q", "CNI16", "CNI4Qm"):
            cls = device_class(name)
            assert issubclass(cls, AbstractNI)
            assert cls is DeviceSpec.from_name(name).base_class

    def test_illegal_names_still_rejected(self):
        with pytest.raises(TaxonomyError):
            device_class("CNI6Q")  # not a whole number of 4-block messages
        with pytest.raises(TaxonomyError):
            device_class("NX4")

    def test_evaluated_device_list_matches_paper(self):
        assert EVALUATED_DEVICES == ("NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm")

    def test_available_devices_metadata_sorted(self):
        devices = available_devices()
        names = [info.name for info in devices]
        assert names == sorted(names)
        for name in EVALUATED_DEVICES:
            assert name in names

    def test_available_devices_carry_parsed_specs_and_tunables(self):
        by_name = {info.name: info for info in available_devices()}
        for name in EVALUATED_DEVICES:
            info = by_name[name]
            assert info.spec is not None
            assert info.spec == parse_ni_name(name)
            assert info.tunables  # every evaluated device has constructor knobs
            assert name in info.describe()
        assert "send_queue_blocks" in by_name["CNI16Q"].tunables
        assert "fifo_messages" in by_name["NI2w"].tunables

    def test_available_device_names(self):
        from repro.ni import available_device_names

        names = available_device_names()
        assert names == tuple(sorted(names))
        assert set(EVALUATED_DEVICES) <= set(names)

    def test_unparseable_registered_name_yields_none_spec(self):
        class OddNI(UncachedNI):
            pass

        register_device("weird-device", OddNI)
        try:
            by_name = {info.name: info for info in available_devices()}
            info = by_name["weird-device"]
            assert info.spec is None
            assert "custom" in info.describe()
        finally:
            unregister_device("weird-device")

    def test_register_custom_device(self):
        class MyNI(UncachedNI):
            pass

        register_device("MyNI4w", MyNI)
        try:
            assert device_class("MyNI4w") is MyNI
        finally:
            unregister_device("MyNI4w")
        with pytest.raises(TaxonomyError):
            device_class("MyNI4w")

    def test_register_non_ni_class_rejected(self):
        with pytest.raises(TaxonomyError):
            register_device("bogus", int)


class TestRegistry:
    """The declarative DeviceSpec registry behind the generative space."""

    def test_device_spec_plans_every_family(self):
        from repro.ni.registry import DeviceSpec

        assert DeviceSpec.from_name("NI16w").family == "uncached"
        assert DeviceSpec.from_name("NI16w").ni_defaults == {"fifo_messages": 32}
        assert DeviceSpec.from_name("NI128Q").ni_defaults == {
            "queue_blocks": 128, "explicit_pointers": True,
        }
        assert DeviceSpec.from_name("CNI16").family == "cdr"
        assert DeviceSpec.from_name("CNI64Q").ni_defaults["recv_home"] == "device"
        qm = DeviceSpec.from_name("CNI4Qm")
        assert qm.ni_defaults == {
            "send_queue_blocks": 4, "recv_queue_blocks": 128,
            "recv_cache_blocks": 4, "recv_home": "memory",
        }

    def test_register_device_decorator_form(self):
        from repro.ni import register_device, unregister_device

        @register_device("TestPluginNI")
        class PluginNI(UncachedNI):
            pass

        try:
            assert device_class("TestPluginNI") is PluginNI
        finally:
            unregister_device("TestPluginNI")
        with pytest.raises(TaxonomyError):
            device_class("TestPluginNI")

    def test_paper_devices_cannot_be_shadowed(self):
        class ShadowNI(UncachedNI):
            pass

        for name in EVALUATED_DEVICES:
            with pytest.raises(TaxonomyError, match="taxonomy point"):
                register_device(name, ShadowNI)
            with pytest.raises(TaxonomyError, match="taxonomy point"):
                unregister_device(name)
        assert device_class("NI2w") is UncachedNI

    def test_available_devices_enumerates_generative_space(self):
        infos = {info.name: info for info in available_devices()}
        # Classified machines from the paper's Section 3 are all buildable.
        for name in ("NI2w", "NI16w", "NI128Q"):
            assert name in infos
        # The paper's devices are taxonomy points like any other.
        assert infos["NI16w"].generated and infos["NI2w"].generated
        assert infos["NI2w"].cls_name == "UncachedNI"
        assert "generated" in infos["NI16w"].describe()
        names = [info.name for info in available_devices()]
        assert names == sorted(names)
        # The non-generative view is the registered-only view.
        registered = available_devices(generative=False)
        assert all(not info.generated for info in registered)

    def test_generative_sample_all_plan_cleanly(self):
        from repro.ni.registry import GENERATIVE_SAMPLE, DeviceSpec

        for name in GENERATIVE_SAMPLE:
            spec = DeviceSpec.from_name(name)
            assert spec.name == name
            assert spec.family in ("uncached", "cdr", "cq")


class TestNiKwargsValidation:
    def test_supported_kwargs_accepted(self):
        validate_ni_kwargs("CNI16Q", {"send_queue_blocks": 32, "recv_queue_blocks": 32})
        validate_ni_kwargs("NI2w", {"fifo_messages": 4})
        validate_ni_kwargs("CNI4", None)
        validate_ni_kwargs("CNI4", {})

    def test_unknown_kwarg_rejected_with_supported_list(self):
        with pytest.raises(TaxonomyError) as excinfo:
            validate_ni_kwargs("CNI16Q", {"queue_blocks": 32})
        message = str(excinfo.value)
        assert "queue_blocks" in message and "send_queue_blocks" in message

    def test_infrastructure_params_not_accepted_as_ni_kwargs(self):
        for infra in ("sim", "node_id", "bus_kind", "dram_allocator"):
            with pytest.raises(TaxonomyError):
                validate_ni_kwargs("CNI512Q", {infra: None})

    def test_unknown_device_rejected(self):
        with pytest.raises(TaxonomyError):
            validate_ni_kwargs("CNI9999", {})

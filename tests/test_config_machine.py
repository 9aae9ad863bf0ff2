"""Configuration presets and machine wiring tests."""

import pytest

from repro.config import (
    BIGTINY_KINDS,
    CONFIG_KINDS,
    DTS_KINDS,
    HCC_KINDS,
    SCALES,
    make_config,
)
from repro.machine import Machine


class TestConfigs:
    @pytest.mark.parametrize("kind", CONFIG_KINDS)
    @pytest.mark.parametrize("scale", sorted(SCALES))
    def test_every_preset_validates(self, kind, scale):
        config = make_config(kind, scale)
        config.validate()
        assert config.n_cores >= 1

    def test_paper_scale_matches_table2(self):
        config = make_config("bt-mesi", "paper")
        assert config.n_big == 4 and config.n_tiny == 60
        assert (config.mesh_rows, config.mesh_cols) == (8, 8)
        assert config.n_l2_banks == 8
        assert config.big_l1.size_bytes == 64 * 1024
        assert config.tiny_l1.size_bytes == 4 * 1024

    def test_large_scale_matches_table5(self):
        config = make_config("bt-hcc-dts-gwb", "large")
        assert config.n_big == 4 and config.n_tiny == 252
        assert config.mesh_cols == 32
        assert config.n_l2_banks == 32
        assert config.dts and config.tiny_protocol == "gpu-wb"

    def test_hcc_kinds_select_protocols(self):
        assert make_config("bt-hcc-dnv", "tiny").tiny_protocol == "denovo"
        assert make_config("bt-hcc-gwt", "tiny").tiny_protocol == "gpu-wt"
        assert make_config("bt-hcc-gwb", "tiny").tiny_protocol == "gpu-wb"
        assert not make_config("bt-hcc-gwb", "tiny").dts
        assert make_config("bt-hcc-dts-gwb", "tiny").dts

    def test_o3_configs_have_only_big_cores(self):
        for n in (1, 4, 8):
            config = make_config(f"o3x{n}", "quick")
            assert config.n_big == n and config.n_tiny == 0
            assert all(config.is_big_core(c) for c in range(n))

    def test_serial_io_is_one_tiny_core(self):
        config = make_config("serial-io", "quick")
        assert config.n_cores == 1
        assert not config.is_big_core(0)

    def test_unknown_kind_and_scale_rejected(self):
        with pytest.raises(ValueError):
            make_config("nope", "tiny")
        with pytest.raises(ValueError):
            make_config("bt-mesi", "galactic")

    def test_overrides_applied(self):
        config = make_config("bt-mesi", "tiny", seed=7, dram_latency=99)
        assert config.seed == 7 and config.dram_latency == 99

    def test_kind_groups_consistent(self):
        assert set(HCC_KINDS) | set(DTS_KINDS) | {"bt-mesi"} == set(BIGTINY_KINDS)


class TestMachine:
    def test_wiring_counts(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        config = machine.config
        assert len(machine.cores) == config.n_cores
        assert len(machine.l1s) == config.n_cores
        assert len(machine.l2.banks) == config.n_l2_banks

    def test_big_cores_get_big_caches(self):
        machine = Machine(make_config("bt-hcc-gwb", "tiny"))
        assert machine.l1s[0].stats.get("size_bytes") == 64 * 1024
        assert machine.l1s[1].stats.get("size_bytes") == 4 * 1024
        assert machine.l1s[0].PROTOCOL == "mesi"
        assert machine.l1s[1].PROTOCOL == "gpu-wb"

    def test_host_write_then_read(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        base = machine.address_space.alloc_words(4, "x")
        machine.host_write_array(base, [1, 2, 3, 4])
        assert machine.host_read_array(base, 4) == [1, 2, 3, 4]

    def test_host_read_sees_dirty_l1_data(self):
        machine = Machine(make_config("bt-hcc-gwb", "tiny"))
        addr = machine.address_space.alloc_words(1, "x")
        machine.l1s[1].store(addr, 77, 0)  # dirty, unflushed
        assert machine.host_read_word(addr) == 77

    def test_host_read_array_takes_first_dirty_l1_per_word(self):
        machine = Machine(make_config("bt-hcc-gwb", "tiny"))
        base = machine.address_space.alloc_words(16, "x")  # two lines
        machine.host_write_array(base, list(range(100, 116)))
        machine.l1s[3].load(base + 8, 0)  # clean holder of line 0
        machine.l1s[2].store(base, 20, 1)
        machine.l1s[2].store(base + 3 * 8, 23, 2)
        machine.l1s[1].store(base + 3 * 8, 13, 3)  # same word, earlier L1
        machine.l1s[1].store(base + 5 * 8, 15, 4)
        machine.l1s[2].store(base + 9 * 8, 29, 5)  # line 1
        expected = list(range(100, 116))
        expected[0], expected[3], expected[5], expected[9] = 20, 13, 15, 29
        # Unaligned window crossing the line boundary, and single words.
        assert machine.host_read_array(base, 16) == expected
        assert machine.host_read_array(base + 2 * 8, 9) == expected[2:11]
        assert [machine.host_read_word(base + i * 8) for i in range(16)] == expected

    def test_tiny_core_ids(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        assert machine.tiny_core_ids() == [1, 2, 3]

    def test_contexts_one_per_core(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        contexts = machine.make_contexts()
        assert [ctx.tid for ctx in contexts] == [0, 1, 2, 3]
        assert all(ctx.core is machine.cores[ctx.tid] for ctx in contexts)

    def test_aggregate_l1_stats_shape(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        agg = machine.aggregate_l1_stats()
        assert {"loads", "stores", "lines_invalidated", "lines_flushed"} <= set(agg)

    def test_hit_rate_defaults_to_one_when_idle(self):
        machine = Machine(make_config("bt-mesi", "tiny"))
        assert machine.l1_hit_rate() == 1.0

"""Command-line interface."""

import dataclasses
import hashlib
import json
import math

import pytest

from repro.api import Scenario
from repro.cli import build_parser, main
from repro.control import get_control
from repro.network import get_network
from repro.tech import TECH_180NM


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.arch == "crossbar"
        assert args.ports == 16
        assert args.throughput == 0.3

    def test_simulate_options(self):
        args = build_parser().parse_args(
            ["simulate", "--arch", "banyan", "--ports", "8", "--load", "0.4",
             "--wire-mode", "per_link"]
        )
        assert args.arch == "banyan"
        assert args.wire_mode == "per_link"

    def test_bad_wire_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--wire-mode", "median"])

    def test_unified_wire_modes_accepted_everywhere(self):
        for command in ("estimate", "simulate", "sweep"):
            for mode in ("worst_case", "expected", "per_link"):
                args = build_parser().parse_args([command, "--wire-mode", mode])
                assert args.wire_mode == mode

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "scenarios.json"])
        assert args.scenarios == "scenarios.json"
        assert args.workers == 1
        assert args.format == "json"


class TestCommands:
    def test_estimate(self, capsys):
        assert main(["estimate", "--arch", "banyan", "--ports", "32",
                     "--throughput", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "banyan 32x32" in out
        assert "pJ/bit" in out and "mW" in out

    def test_simulate_small(self, capsys):
        assert main(["simulate", "--arch", "crossbar", "--ports", "4",
                     "--load", "0.2", "--slots", "60", "--warmup", "10"]) == 0
        out = capsys.readouterr().out
        assert "crossbar 4x4" in out
        assert "throughput" in out

    def test_sweep_small(self, capsys):
        assert main(["sweep", "--arch", "fully_connected", "--ports", "4",
                     "--slots", "80", "--loads", "0.1", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "fully_connected 4x4" in out
        assert out.count("0.") > 4

    def test_estimate_expected_wire_mode(self, capsys):
        assert main(["estimate", "--arch", "banyan", "--ports", "16",
                     "--wire-mode", "expected"]) == 0
        assert "banyan 16x16" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "140" in out and "222" in out

    def test_table1_small(self, capsys):
        assert main(["table1", "--cycles", "48"]) == 0
        out = capsys.readouterr().out
        assert "banyan[1,1]" in out
        assert "calibration" in out


class TestBatchCommand:
    @pytest.fixture
    def scenario_file(self, tmp_path):
        scenarios = [
            Scenario("crossbar", 4, 0.3, backend="estimate",
                     name="est").to_dict(),
            Scenario("banyan", 4, 0.3, backend="simulate", name="sim",
                     arrival_slots=60, warmup_slots=12, seed=9).to_dict(),
        ]
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(scenarios))
        return path

    def test_batch_json_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--workers", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in report] == ["est", "sim"]
        assert {r["backend"] for r in report} == {"estimate", "simulate"}
        assert all(r["total_power_w"] > 0 for r in report)

    def test_batch_csv_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,backend,architecture")
        assert len(lines) == 3

    def test_batch_table_report(self, scenario_file, capsys):
        assert main(["batch", str(scenario_file), "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 scenarios" in out

    def test_batch_unknown_field_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('[{"architecture": "crossbar", "ports": 4, '
                        '"load": 0.3, "thruput": 0.3}]')
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "thruput" in err and "load" in err

    @pytest.mark.parametrize("bits", ["480", 480.7, -5])
    def test_batch_malformed_packet_bits_is_a_clean_error(
        self, tmp_path, capsys, bits
    ):
        scenario = Scenario("crossbar", 4, 0.0, traffic="permutation",
                            arrival_slots=10, warmup_slots=2).to_dict()
        scenario["traffic_params"] = {"packet_bits": bits}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([scenario]))
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "packet_bits" in err

    def test_batch_missing_file_is_a_clean_error(self, capsys):
        assert main(["batch", "no-such-file.json"]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_non_object_cache_line_is_quarantined(self, estimate_file,
                                                  tmp_path, capsys):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("[1, 2]\n")
        assert main(["batch", str(estimate_file), "--cache", str(cache)]) == 0
        assert "1 skipped, 1 quarantined" in capsys.readouterr().err

    def test_unknown_architecture_is_a_clean_error(self, capsys):
        assert main(["estimate", "--arch", "clos"]) == 2
        assert "unknown architecture" in capsys.readouterr().err

    def test_batch_output_file(self, scenario_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["batch", str(scenario_file),
                     "--output", str(out_path)]) == 0
        assert "2 scenarios" in capsys.readouterr().out
        assert len(json.loads(out_path.read_text())) == 2


@pytest.fixture
def estimate_file(tmp_path):
    """A two-scenario file on the closed-form backend (no simulation)."""
    path = tmp_path / "estimates.json"
    path.write_text(json.dumps([
        Scenario("crossbar", 4, 0.3, backend="estimate").to_dict(),
        Scenario("banyan", 8, 0.5, backend="estimate").to_dict(),
    ]))
    return path


class TestSpecPaths:
    @pytest.mark.parametrize(
        "kind, noun",
        [("campaign", "campaign"), ("network", "network spec"),
         ("control", "control spec")],
    )
    def test_directory_spec_is_a_clean_error(
        self, tmp_path, capsys, kind, noun
    ):
        assert main([kind, "run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"error: cannot read {noun} file {str(tmp_path)!r}: "
        )


class TestOutputPaths:
    @pytest.fixture
    def afile(self, tmp_path):
        """A regular file, so ``afile/x`` cannot be written."""
        path = tmp_path / "afile"
        path.write_text("")
        return path

    @pytest.mark.parametrize("flag", ["--output", "--json"])
    def test_unwritable_kind_path_is_a_clean_error(
        self, afile, capsys, flag
    ):
        target = str(afile / "x.txt")
        assert main(["campaign", "run", "table2", flag, target]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {target!r}: "
        )

    def test_unwritable_batch_output_is_a_clean_error(
        self, estimate_file, afile, capsys
    ):
        target = str(afile / "r.json")
        assert main(["batch", str(estimate_file), "--output", target]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {target!r}: "
        )

    def test_batch_csv_file_is_the_printed_csv(
        self, estimate_file, tmp_path, capsys
    ):
        # The cache serves the second run the same records (elapsed_s
        # included), so the two reports must match byte for byte.
        batch = ["batch", str(estimate_file), "--format", "csv",
                 "--cache", str(tmp_path / "cache.jsonl")]
        assert main(batch) == 0
        printed = capsys.readouterr().out
        assert printed.endswith("\n") and not printed.endswith("\n\n")
        out_path = tmp_path / "report.csv"
        assert main(batch + ["--output", str(out_path)]) == 0
        assert out_path.read_bytes() == printed.encode()


def _nested(spec, field: dict, *path) -> str:
    """``spec.to_dict()`` as JSON, ``field`` merged into the object at
    ``path``."""
    data = spec.to_dict()
    target = data
    for key in path:
        target = target[key]
    target.update(field)
    return json.dumps(data)


#: ``(command, file content)`` of malformed spec files: JSON scalars,
#: empty objects, wrong field types, a nested ``tech`` object with an
#: unknown field, an integer too large for a float, bytes that are not
#: UTF-8, a banyan whose port count is not a power of two, a router
#: one port over the cap, table campaigns whose params are not
#: integers or not banyan port counts, a nested ``tech`` object, a
#: network spec with a wrongly typed number or flag, a control spec
#: with a wrongly typed headroom, flag, sweep entry or link rate, a
#: control spec whose demand series has a wrongly typed scale or epoch
#: length, and a network spec with a wrongly typed demand, link or
#: router number.
MALFORMED_SPECS = [
    ("network", "1"),
    ("network", "null"),
    ("control", "1"),
    ("control", "null"),
    ("batch", "1"),
    ("batch", "null"),
    ("batch", "[1]"),
    ("campaign", "{}"),
    ("network", "{}"),
    ("control", "{}"),
    ("batch", "[{}]"),
    ("batch", '[{"architecture": "crossbar", "ports": "x", "load": 0.3}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"tech": {"x": 1}}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 1'
              + "0" * 400 + "}]"),
    ("campaign", '{"name": "c", "base": 5}'),
    ("control", b"\xff\xfe{}"),
    ("batch", '[{"architecture": "banyan", "ports": 6, "load": 0.3}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4097, "load": 0.3}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"rng_stream": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"seed": 1.5, "arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"seed": "3", "arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"seed": -1, "arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"queueing": "voq", "islip_iterations": 2.5, '
              '"arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"arrival_slots": 10.5, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"rng_stream": true, "arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": "0.5", '
              '"arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": true, '
              '"arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"traffic": "hotspot", "traffic_params": {"hotspot_frac": 0.5}, '
              '"arrival_slots": 10, "warmup_slots": 2}]'),
    ("batch", '[{"architecture": "crossbar", "ports": 4, "load": 0.3, '
              '"traffic": "bursty", "traffic_params": {"burst_len": "x"}, '
              '"arrival_slots": 10, "warmup_slots": 2}]'),
    ("campaign", '{"params": {"cycles": "abc", "seed": 1}, "name": "t1", '
                 '"kind": "table1"}'),
    ("campaign", '{"params": {"seed": "x"}, "name": "t1", "kind": "table1"}'),
    ("campaign", '{"params": {"cycles": 2.7}, "name": "t1", '
                 '"kind": "table1"}'),
    ("campaign", '{"params": {"cycles": true}, "name": "t1", '
                 '"kind": "table1"}'),
    ("campaign", '{"params": {"ports": 4}, "name": "t2", "kind": "table2"}'),
    ("campaign", '{"params": {"ports": ["x"]}, "name": "t2", '
                 '"kind": "table2"}'),
    ("campaign", '{"params": {"ports": [3]}, "name": "t2", "kind": "table2"}'),
    ("campaign", '{"params": {"ports": [4.5]}, "name": "t2", '
                 '"kind": "table2"}'),
    *[
        ("batch", json.dumps([{
            "architecture": "crossbar", "ports": 4, "load": 0.3,
            "arrival_slots": 5, "warmup_slots": 1,
            "tech": {**dataclasses.asdict(TECH_180NM), **field},
        }]))
        for field in ({"gate_cap_f": []}, {"bus_width_bits": True},
                      {"bus_width_bits": 32.5})
    ],
    *[
        ("network", json.dumps(
            {**get_network("single_crossbar8").to_dict(), "switch_off": flag}
        ))
        for flag in ("x", 2.5, None, [])
    ],
    *[
        ("control", json.dumps(
            {**get_control("dumbbell_sleep_sweep").to_dict(), **field}
        ))
        for field in ({"max_utilization": True}, {"sleep": "x"},
                      {"sleep": []}, {"sla_sweep": ["0.5"]},
                      {"link_rates": [True, 1.0]})
    ],
    *[
        ("control", _nested(get_control("dumbbell_sleep_sweep"), field,
                            "series"))
        for field in ({"scales": ["0.5"]}, {"scales": [True, 1.0]},
                      {"scales": "12"}, {"epoch_seconds": True})
    ],
    *[
        ("network", _nested(get_network("dumbbell_switchoff"), field, *path))
        for path, field in (
            (("matrix", "demands", 0), {"cells_per_slot": True}),
            (("topology", "links", 0), {"capacity": True}),
            (("topology", "links", 0), {"length_m": True}),
            (("topology", "nodes", 0), {"ports": 4.0}),
        )
    ],
    # A float field at infinity: Python's json reads and writes it as
    # `Infinity`, which strict JSON parsers refuse.
    ("network", json.dumps(
        {**get_network("dumbbell_switchoff").to_dict(),
         "port_power_w": math.inf}
    )),
    ("control", json.dumps(
        {**get_control("dumbbell_sleep_sweep").to_dict(),
         "wake_energy_j": math.inf}
    )),
]


def _spec_id(command: str, text: str | bytes) -> str:
    """A case's test id from its own bytes: inserting a case renames no
    other case."""
    data = text if isinstance(text, bytes) else text.encode()
    return f"{command}:{hashlib.sha256(data).hexdigest()[:12]}"


MALFORMED_SPEC_IDS = [_spec_id(c, t) for c, t in MALFORMED_SPECS]


def test_malformed_spec_ids_are_unique():
    assert len(set(MALFORMED_SPEC_IDS)) == len(MALFORMED_SPECS)


@pytest.mark.parametrize(
    "command, text", MALFORMED_SPECS, ids=MALFORMED_SPEC_IDS,
)
def test_malformed_spec_file_is_a_clean_error(tmp_path, capsys, command,
                                              text):
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [command, str(path)] if command == "batch" else [
        command, "run", str(path)
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


#: Command lines that parse but ask for what the library refuses: a
#: banyan whose port count is not a power of two, a negative seed, more
#: ports than a scenario takes, a Table 1 characterisation of no cycles.
BAD_COMMAND_LINES = {
    "simulate-banyan-6": ["simulate", "--arch", "banyan", "--ports", "6",
                          "--load", "0.3"],
    "sweep-banyan-6": ["sweep", "--arch", "banyan", "--ports", "6",
                       "--slots", "20", "--loads", "0.1"],
    "sweep-negative-seed": ["sweep", "--seed", "-1", "--slots", "100"],
    "sweep-4097-ports": ["sweep", "--ports", "4097", "--slots", "1",
                         "--loads", "0.1"],
    "table1-zero-cycles": ["table1", "--cycles", "0"],
    "table1-negative-cycles": ["table1", "--cycles", "-3"],
    "network-nan-scale": ["network", "run", "dumbbell_switchoff",
                          "--scale", "nan", "--format", "json"],
}


@pytest.mark.parametrize("argv", BAD_COMMAND_LINES.values(),
                         ids=BAD_COMMAND_LINES.keys())
def test_bad_command_line_is_a_clean_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")

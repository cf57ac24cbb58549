import json

import pytest

from repro.__main__ import main as repro_main
from repro.eval.__main__ import main as eval_main


class TestReproCli:
    def test_protocols(self, capsys):
        assert repro_main(["protocols"]) == 0
        out = capsys.readouterr().out
        assert "ntp" in out and "awdl" in out
        assert "no IP context" in out

    def test_generate_and_analyze_capture(self, tmp_path, capsys):
        pcap = tmp_path / "dns.pcap"
        assert repro_main(["generate", "dns", "-n", "120", "-o", str(pcap)]) == 0
        assert pcap.stat().st_size > 0
        report_path = tmp_path / "report.json"
        code = repro_main(
            [
                "analyze",
                str(pcap),
                "--port",
                "53",
                "--segmenter",
                "csp",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cluster_count"] >= 1
        assert report["message_count"] > 0

    def test_generate_no_ip_protocol(self, tmp_path):
        pcap = tmp_path / "au.pcap"
        assert repro_main(["generate", "au", "-n", "50", "-o", str(pcap)]) == 0
        from repro.net.pcap import read_pcap

        linktype, packets = read_pcap(pcap)
        assert linktype == 147  # USER0: raw payload capture
        assert len(packets) == 50

    def test_analyze_model_with_semantics(self, capsys):
        code = repro_main(
            ["analyze", "--model", "ntp", "-n", "150", "--semantics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pseudo data types" in out

    def test_analyze_requires_input(self, capsys):
        assert repro_main(["analyze"]) == 2

    def test_analyze_missing_capture_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro_main(["analyze", str(tmp_path / "missing.pcap")])

    def test_neighborhoods_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(
                ["analyze", "--model", "ntp", "-n", "50", "--neighborhoods", "csr"]
            )
        assert excinfo.value.code == 2
        assert "--neighborhoods" in capsys.readouterr().err


class TestEvalCli:
    def test_fig3(self, capsys):
        assert eval_main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_quick_fig2(self, capsys):
        assert eval_main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out

    def test_backend_flags_reach_the_artefact_config(self, monkeypatch, capsys):
        # --memory-bound-mb and --workers come from the shared backend
        # flag group, so every artefact must receive them.
        import repro.eval.__main__ as eval_cli

        captured = {}

        class Table:
            def render(self):
                return "table1"

        def fake_table1(**kwargs):
            captured.update(kwargs)
            return Table()

        monkeypatch.setattr(eval_cli, "run_table1", fake_table1)
        monkeypatch.setattr(eval_cli, "table1_records", lambda table: [])
        argv = [
            "table1", "--quick", "--workers", "0", "--memory-bound-mb", "1",
        ]
        assert eval_main(argv) == 0
        config = captured["config"]
        assert config.memory_bound_bytes == 1024 * 1024
        assert config.matrix_options.workers == 0

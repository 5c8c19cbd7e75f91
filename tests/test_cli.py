"""The command-line interface."""

from __future__ import annotations

import pytest

from repro.chatroom import MULTI_WORKER_MODES, RUNTIME_MODES, SupervisionRuntime
from repro.cli import main
from repro.core.system import ELearningSystem, SystemConfig


class TestParseCommand:
    def test_clean_sentence_exits_zero(self, capsys):
        assert main(["parse", "The stack is full."]) == 0
        out = capsys.readouterr().out
        assert "linkages:" in out
        assert "stack" in out

    def test_broken_sentence_exits_nonzero(self, capsys):
        assert main(["parse", "stack the full is."]) == 1

    def test_wall_flag(self, capsys):
        main(["parse", "The stack is full.", "--wall"])
        assert "<WALL>" in capsys.readouterr().out


class TestCheckCommand:
    def test_semantic_violation(self, capsys):
        assert main(["check", "I push the data into a tree."]) == 1
        out = capsys.readouterr().out
        assert "violation" in out
        assert "hint:" in out

    def test_clean(self, capsys):
        assert main(["check", "We push an element onto the stack."]) == 0
        assert "OK" in capsys.readouterr().out

    def test_negation_example(self, capsys):
        assert main(["check", "The tree doesn't have pop method."]) == 0


class TestAskCommand:
    def test_definition(self, capsys):
        assert main(["ask", "What is Stack?"]) == 0
        assert "Last In, First Out" in capsys.readouterr().out

    def test_unanswerable(self, capsys):
        assert main(["ask", "How is the weather?"]) == 1


class TestRepairCommand:
    def test_repair_output(self, capsys):
        assert main(["repair", "The stacks is full."]) == 0
        out = capsys.readouterr().out
        assert "The stack is full." in out

    def test_nothing_to_repair(self, capsys):
        assert main(["repair", "The stack is full."]) == 0
        assert "no repair needed" in capsys.readouterr().out


class TestOntologyCommand:
    def test_xml_dump(self, capsys):
        assert main(["ontology", "--format", "xml"]) == 0
        assert "KnowledgeBody" in capsys.readouterr().out

    def test_ddl_dump(self, capsys):
        assert main(["ontology", "--format", "ddl"]) == 0
        assert "CREATE CONCEPT 'stack' ID 3" in capsys.readouterr().out


class TestExportAndSimulate:
    def test_export_scorm(self, tmp_path, capsys):
        assert main(["export-scorm", str(tmp_path / "pkg")]) == 0
        assert (tmp_path / "pkg" / "imsmanifest.xml").exists()

    @pytest.mark.slow
    def test_simulate(self, capsys):
        assert main(["simulate", "--rounds", "2", "--learners", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "messages=" in out

    @pytest.mark.parametrize("mode", RUNTIME_MODES)
    def test_simulate_report_does_not_depend_on_runtime(self, mode, capsys):
        args = ["simulate", "--rounds", "2", "--learners", "3", "--shards", "3"]
        assert main(args + ["--runtime", "queued"]) == 0
        reference = capsys.readouterr().out
        assert main(args + ["--runtime", mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        if mode in MULTI_WORKER_MODES:
            header = lines.pop(0)
            assert header.startswith(f"runtime={mode} workers=3 worker_messages=[")
        assert lines == reference.splitlines()
        assert not reference.startswith("runtime=")

    @pytest.mark.slow
    def test_simulate_durable_then_recover(self, tmp_path, capsys):
        data_dir = str(tmp_path / "state")
        assert main(["simulate", "--rounds", "1", "--learners", "2",
                     "--data-dir", data_dir, "--snapshot-every", "4"]) == 0
        capsys.readouterr()
        assert main(["recover", data_dir]) == 0
        out = capsys.readouterr().out
        assert "recovery: clean" in out
        assert "recovered state:" in out


class TestArgParsing:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("mode", ["process", "bogus"])
    def test_unknown_runtime_mode_rejected_everywhere(self, mode, capsys):
        with pytest.raises(ValueError, match="unknown runtime mode"):
            SupervisionRuntime(mode=mode)
        with pytest.raises(ValueError, match="unknown runtime mode"):
            ELearningSystem.with_defaults(SystemConfig(runtime_mode=mode))
        with pytest.raises(SystemExit) as exited:
            main(["simulate", "--runtime", mode])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

"""CLI front-end tests."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bgplite" in out and "ring" in out and "disagree" in out
        assert "corpus:<name>" in out


class TestVerify:
    def test_hop_count_ring(self, capsys):
        assert main(["verify", "--algebra", "hop-count", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 7" in out

    def test_bgplite_gets_theorem11(self, capsys):
        assert main(["verify", "--algebra", "bgplite", "--n", "4",
                     "--samples", "20"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 11" in out

    def test_unknown_algebra_exits(self):
        with pytest.raises(SystemExit):
            main(["verify", "--algebra", "nonsense"])

    def test_unknown_topology_exits(self):
        with pytest.raises(SystemExit, match="corpus:<name>"):
            main(["verify", "--topology", "moebius"])

    def test_corpus_topology(self, capsys):
        """The CLI builds a network the way the daemon's ``load`` does,
        corpus fixtures included; a wrong ``--n`` exits naming the
        right one."""
        from repro.scenarios.corpus import load_corpus_topology
        n = load_corpus_topology("abilene").n
        assert main(["verify", "--algebra", "hop-count", "--topology",
                     "corpus:abilene", "--n", str(n), "--samples",
                     "10"]) == 0
        assert "Theorem 7" in capsys.readouterr().out
        with pytest.raises(SystemExit, match=f"n={n}"):
            main(["verify", "--topology", "corpus:abilene",
                  "--n", str(n + 1)])


class TestConverge:
    def test_absolute_on_hop_ring(self, capsys):
        rc = main(["converge", "--algebra", "hop-count", "--n", "4",
                   "--starts", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ABSOLUTE          : True" in out


class TestCensus:
    def test_disagree_wedgie(self, capsys):
        assert main(["census", "--gadget", "disagree"]) == 0
        out = capsys.readouterr().out
        assert "stable states     : 2" in out
        assert "wedgie" in out

    def test_bad_gadget(self, capsys):
        assert main(["census", "--gadget", "bad"]) == 0
        out = capsys.readouterr().out
        assert "no stable state" in out

    def test_repaired(self, capsys):
        assert main(["census", "--gadget", "disagree-increasing"]) == 0
        out = capsys.readouterr().out
        assert "unique stable state" in out


class TestSimulate:
    def test_lossy_run(self, capsys):
        rc = main(["simulate", "--algebra", "hop-count", "--n", "5",
                   "--loss", "0.2", "--dup", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged      : True" in out

    def test_random_topology(self, capsys):
        rc = main(["simulate", "--algebra", "shortest-pv", "--n", "5",
                   "--topology", "random"])
        assert rc == 0


class TestScenarios:
    def test_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "corpus:abilene" in out
        assert "link-flap" in out and "del-best-route" in out
        assert "stratified-bounded" in out

    def test_run_prints_per_phase_table(self, capsys):
        rc = main(["scenarios", "run", "--topology", "corpus:cesnet",
                   "--event", "link-flap"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corpus-cesnet" in out
        assert "link-down" in out and "link-up" in out
        assert "churn" in out

    def test_run_unknown_event_exits(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "run", "--event", "meteor-strike"])

    def test_survey_small_grid_exits_zero(self, capsys):
        rc = main(["scenarios", "survey",
                   "--topology", "corpus:janet",
                   "--event", "link-flap", "--event", "policy-change",
                   "--algebra", "hop-count", "--trials", "2", "--oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out and "ok*" in out

    def test_survey_failed_cell_exits_nonzero(self, capsys):
        rc = main(["scenarios", "survey", "--topology", "nope",
                   "--event", "link-flap", "--algebra", "hop-count"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.workload.scenario import Scenario, ScenarioConfig


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.profile == "quick"
        assert args.gossip is True
        assert args.protocol == "maodv"

    def test_run_no_gossip_flag(self):
        args = build_parser().parse_args(["run", "--no-gossip"])
        assert args.gossip is False

    def test_figure_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "fig3", "--scale", "quick", "--seeds", "2", "--points", "55", "75"]
        )
        assert args.figure == "fig3"
        assert args.points == [55.0, 75.0]
        assert args.seeds == 2

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "fig99"])

    def test_four_subcommands(self):
        parser = build_parser()
        assert "{run,campaign,report,list-figures}" in parser.format_help()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "fig2"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "fig2"])
        assert args.jobs == 1
        assert args.out is None
        assert args.resume is False
        assert args.scale == "quick"

    def test_campaign_arguments(self):
        args = build_parser().parse_args([
            "campaign", "fig3", "--jobs", "4", "--out", "fig3.jsonl", "--resume",
            "--points", "55", "--seeds", "2",
        ])
        assert args.jobs == 4
        assert args.out == "fig3.jsonl"
        assert args.resume is True
        assert args.points == [55.0]


class TestCommands:
    def test_list_figures_output(self, capsys):
        assert main(["list-figures"]) == 0
        output = capsys.readouterr().out
        for figure in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert figure in output

    def test_run_command_prints_summary(self, capsys):
        exit_code = main([
            "run", "--profile", "quick", "--nodes", "10", "--members", "4",
            "--range", "70", "--speed", "0.5", "--seed", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "maodv + gossip" in output
        assert "delivery" in output
        assert "events processed" in output

    @pytest.mark.parametrize("model", ["gauss_markov", "rpgm", "manhattan"])
    def test_run_command_with_mobility_model(self, model, capsys):
        exit_code = main([
            "run", "--profile", "quick", "--nodes", "10", "--members", "4",
            "--speed", "1.5", "--seed", "2", "--mobility", model,
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "events processed" in output

    def test_run_command_rejects_unknown_mobility_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mobility", "teleporting"])

    @pytest.mark.parametrize("flags, message", [
        (["--nodes", "0"], "a scenario needs at least two nodes"),
        (["--range", "0"], "transmission_range_m must be positive"),
    ], ids=["nodes_0", "range_0"])
    def test_run_reports_a_bad_argument_in_one_line(self, flags, message, capsys):
        assert main(["run", "--profile", "quick", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""

    def test_run_command_without_gossip(self, capsys):
        exit_code = main([
            "run", "--profile", "quick", "--nodes", "10", "--members", "4",
            "--no-gossip", "--seed", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "maodv " in output
        assert "+ gossip" not in output


class TestCampaignCommand:
    def test_campaign_without_store_prints_table(self, capsys):
        exit_code = main([
            "campaign", "fig2", "--seeds", "1", "--points", "65", "--jobs", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Packet delivery vs transmission range" in output
        assert "[1/2]" in output and "[2/2]" in output

    def test_campaign_jobs_2_prints_the_same_table_as_jobs_1(self, capsys):
        tables = []
        for jobs in ("1", "2"):
            assert main([
                "campaign", "fig2", "--seeds", "1", "--points", "65", "--jobs", jobs,
            ]) == 0
            output = capsys.readouterr().out.splitlines()
            tables.append([line for line in output if not line.startswith("[")])
        assert tables[0] == tables[1]
        assert tables[0][0] == "Packet delivery vs transmission range (max speed 0.2 m/s)"
        assert len(tables[0]) == 5

    def test_campaign_with_custom_variants(self, capsys):
        exit_code = main([
            "campaign", "fig2", "--scale", "quick", "--seeds", "1", "--points", "65",
            "--variants", "maodv",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "maodv" in output
        assert "gossip" not in output.replace("Anonymous Gossip", "")

    def test_campaign_with_store_and_resume(self, capsys, tmp_path):
        out = str(tmp_path / "fig2.jsonl")
        base = ["campaign", "fig2", "--seeds", "1", "--points", "65", "--out", out]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "2/2 trials already stored" in output

    def test_campaign_resume_reports_undecodable_store_lines(self, capsys, tmp_path):
        out = tmp_path / "fig2.jsonl"
        base = ["campaign", "fig2", "--seeds", "1", "--points", "65", "--out", str(out)]
        assert main(base) == 0
        assert "undecodable" not in capsys.readouterr().err
        with open(out, "a", encoding="utf-8") as handle:
            handle.write("\n0.6\n")
            handle.write('{"key": "tail", "campaign": "fig2", "vari')
        assert main(base + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert f"skipped 2 undecodable line(s) in {out}" in captured.err
        assert "2/2 trials already stored" in captured.out

    def test_campaign_refuses_existing_store_without_resume(self, capsys, tmp_path):
        out = str(tmp_path / "fig2.jsonl")
        base = ["campaign", "fig2", "--seeds", "1", "--points", "65", "--out", out]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base) == 2
        assert "--resume" in capsys.readouterr().err

    def test_campaign_resume_requires_out(self, capsys):
        exit_code = main(["campaign", "fig2", "--seeds", "1", "--resume"])
        assert exit_code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0"], "seeds must be at least 1"),
        (["--seeds", "-2"], "seeds must be at least 1"),
        (["--seeds", "1", "--points"], "at least one x value"),
        (["--seeds", "1", "--variants"], "one variant"),
    ], ids=["seeds_0", "seeds_negative", "bare_points", "bare_variants"])
    def test_campaign_of_zero_trials_exits_2_and_writes_nothing(
        self, flags, message, capsys, tmp_path
    ):
        out = tmp_path / "fig7.jsonl"
        assert main(["campaign", "fig7", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    def test_campaign_rejects_unknown_variant(self, capsys):
        exit_code = main([
            "campaign", "fig2", "--seeds", "1", "--points", "65",
            "--variants", "amris",
        ])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "'amris'" in err
        assert "known variants" in err
        assert "gossip-no-locality" in err

    def test_campaign_fig8_prints_goodput_combinations(self, capsys):
        exit_code = main(["campaign", "fig8", "--seeds", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Gossip goodput per member" in output
        assert "45m @ 0.2m/s" in output
        assert "75m @ 2m/s" in output

    def test_campaign_fig8_rejects_points_and_variants(self, capsys):
        assert main(["campaign", "fig8", "--seeds", "1", "--points", "0"]) == 2
        assert "goodput experiment" in capsys.readouterr().err
        assert main(["campaign", "fig8", "--seeds", "1", "--variants", "maodv"]) == 2
        assert "goodput experiment" in capsys.readouterr().err


class TestMembershipCli:
    def test_run_churn_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.groups == 1
        assert args.churn == "none"

    def test_run_with_groups_and_churn(self, capsys):
        exit_code = main([
            "run", "--profile", "quick", "--groups", "2",
            "--churn", "poisson", "--churn-rate", "12", "--seed", "3",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "group" in output
        assert "membership events applied:" in output

    def test_run_with_groups_reports_the_all_group_goodput(self, capsys):
        result = Scenario(ScenarioConfig.quick(group_count=2, seed=3)).run()
        values = [
            value for goodput in result.goodput_by_group.values() for value in goodput.values()
        ]
        assert main(["run", "--profile", "quick", "--groups", "2", "--seed", "3"]) == 0
        assert f"{sum(values) / len(values):.1f}%" in capsys.readouterr().out

    def test_run_with_flash_churn(self, capsys):
        # --churn flash must build a valid config (joiners and instant are
        # derived from the profile, not left at the dataclass defaults).
        exit_code = main(["run", "--profile", "quick", "--churn", "flash", "--seed", "4"])
        assert exit_code == 0
        assert "membership events applied:" in capsys.readouterr().out

    def test_churn_and_groups_figures_listed(self, capsys):
        assert main(["list-figures"]) == 0
        output = capsys.readouterr().out
        assert "churn" in output
        assert "groups" in output

    def test_churn_campaign_point_runs(self, capsys):
        exit_code = main([
            "campaign", "churn", "--seeds", "1", "--points", "6",
            "--variants", "gossip",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "membership events / min / group" in output

    def test_groups_campaign_point_runs(self, capsys):
        exit_code = main([
            "campaign", "groups", "--seeds", "1", "--points", "2",
            "--variants", "maodv",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "concurrent multicast groups" in output

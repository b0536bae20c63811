import hashlib
import json
import math

import pytest

import tfrom
from tfrom.cli import main

METRIC_COLUMNS = (
    "total_quality",
    "ndcg_variance",
    "ndcg_variance_all",
    "exposure_variance",
    "qw_ratio_variance",
)


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("instance")
    code = main(
        ["gen", "--m", "6", "--n", "15", "--l", "3", "--seed", "23", "--out", str(out)]
    )
    assert code == 0
    return out / "preferences.csv", out / "providers.csv"


def run_metrics(instance_files, recommendations, out):
    preferences, providers = instance_files
    return main(
        [
            "metrics",
            "--preferences",
            str(preferences),
            "--providers",
            str(providers),
            "--recommendations",
            str(recommendations),
            "--out",
            str(out),
        ]
    )


def run_offline(instance_files, out, extra=()):
    preferences, providers = instance_files
    return main(
        [
            "offline",
            "--preferences",
            str(preferences),
            "--providers",
            str(providers),
            "--algorithms",
            "tfrom,topk",
            "--k",
            "3,5",
            "--seed",
            "7",
            "--out",
            str(out),
            *extra,
        ]
    )


class TestGen:
    def test_files_exist_and_load(self, instance_files):
        preferences, providers = instance_files
        matrix, catalog, _ = tfrom.fileio.load_instance(preferences, providers)
        assert matrix.m == 6 and matrix.n == 15 and catalog.l == 3


# sha256 of the files these commands write (paths under their --out
# directories); every CSV writer must reproduce them byte for byte
PINNED = {
    "instance/preferences.csv": "2f86ce335b30cf1d2e99f596c339922d92051263135e3e9426663fb34654b188",
    "instance/providers.csv": "035e0f7e33e069dad568af78b60244aa551dc252cb8f095eb6eb0b17636e8e9b",
    "offline/tfrom_k5/recommendations.csv": (
        "6a79e929fe73cabb6db6412a3fb707662fea75759ba782d0f0e9b50a5549556f"
    ),
    "offline/trace.csv": "780f4d2da4f003436766061360128367cfd303ff7ce039efef607c8df95b3fd0",
    "online/tfrom/recommendations.csv": (
        "3c16191daff63cd772ed7453641dea3e93a69ee5ca8ed99718bfbb3e1bab9904"
    ),
    "online/trace.csv": "6492a0de291deff5771597c65c2094e53c74c729d8966bb1de8c01371ca4114b",
}


def test_output_bytes_pinned(tmp_path):
    instance = tmp_path / "instance"
    files = ["--preferences", str(instance / "preferences.csv")]
    files += ["--providers", str(instance / "providers.csv")]
    run = ["--k", "5", "--seed", "7"]
    size = ["--m", "40", "--n", "60", "--l", "5"]
    assert main(["gen", *size, "--seed", "7", "--out", str(instance)]) == 0
    assert main(["offline", *files, *run, "--out", str(tmp_path / "offline")]) == 0
    online = ["--stream-multiplier", "2", "--out", str(tmp_path / "online")]
    assert main(["online", *files, *run, *online]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED}
    assert digests == PINNED


class TestOffline:
    def test_outputs(self, instance_files, tmp_path):
        out = tmp_path / "run"
        assert run_offline(instance_files, out) == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + 4  # header + 2 k values x 2 algorithms
        summary = json.loads((out / "summary.json").read_text())
        assert summary["instance"] == {"customers": 6, "items": 15, "providers": 3}
        assert len(summary["results"]) == 4
        for algo in ("tfrom", "topk"):
            for k in (3, 5):
                assert (out / f"{algo}_k{k}" / "recommendations.csv").exists()

    def test_three_ks_two_algorithms_give_six_rows(self, instance_files, tmp_path):
        preferences, providers = instance_files
        out = tmp_path / "run"
        code = main(
            [
                "offline",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--algorithms",
                "tfrom,topk",
                "--k",
                "3,5,7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 1 + 6

    def test_byte_identical_reruns(self, instance_files, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_offline(instance_files, first) == 0
        assert run_offline(instance_files, second) == 0
        # output paths differ, so compare everything except the config echo
        trace_a = (first / "trace.csv").read_bytes()
        trace_b = (second / "trace.csv").read_bytes()
        assert trace_a == trace_b
        summary_a = json.loads((first / "summary.json").read_text())
        summary_b = json.loads((second / "summary.json").read_text())
        assert summary_a["results"] == summary_b["results"]


class TestOnline:
    def test_outputs(self, instance_files, tmp_path):
        preferences, providers = instance_files
        out = tmp_path / "run"
        code = main(
            [
                "online",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--algorithms",
                "tfrom,topk",
                "--k",
                "3",
                "--seed",
                "7",
                "--stream-multiplier",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + 4  # header + 2 rows x 2 algorithms
        head = (out / "tfrom" / "recommendations.csv").read_text().splitlines()[0]
        assert head.split(",")[0] == "request"

    def test_multiple_k_rejected(self, instance_files, tmp_path):
        preferences, providers = instance_files
        code = main(
            [
                "online",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--k",
                "3,5",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 1


class TestMetrics:
    def test_topk_recommendations_recompute_to_m(self, instance_files, tmp_path):
        preferences, providers = instance_files
        run_dir = tmp_path / "run"
        assert run_offline(instance_files, run_dir) == 0
        out = tmp_path / "metrics"
        code = main(
            [
                "metrics",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--recommendations",
                str(run_dir / "topk_k3" / "recommendations.csv"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["results"]["total_quality"] == pytest.approx(6.0, rel=1e-12)
        assert summary["results"]["mode"] == "offline"

    def test_round_trip_matches_trace(self, instance_files, tmp_path):
        run_dir = tmp_path / "run"
        assert run_offline(instance_files, run_dir) == 0
        run_summary = json.loads((run_dir / "summary.json").read_text())
        row = next(
            r
            for r in run_summary["results"]
            if r["algorithm"] == "tfrom" and r["step"] == 5
        )
        out = tmp_path / "metrics"
        recommendations = run_dir / "tfrom_k5" / "recommendations.csv"
        assert run_metrics(instance_files, recommendations, out) == 0
        redone = json.loads((out / "summary.json").read_text())["results"]
        for key in METRIC_COLUMNS:
            assert redone[key] == row[key]

    def online_round_trip(self, instance_files, tmp_path, fairness):
        preferences, providers = instance_files
        run_dir = tmp_path / "run"
        code = main(
            [
                "online",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--fairness",
                fairness,
                "--algorithms",
                "tfrom",
                "--k",
                "3",
                "--seed",
                "7",
                "--stream-multiplier",
                "3",
                "--out",
                str(run_dir),
            ]
        )
        assert code == 0
        final_row = json.loads((run_dir / "summary.json").read_text())["results"][-1]
        out = tmp_path / "metrics"
        recommendations = run_dir / "tfrom" / "recommendations.csv"
        assert run_metrics(instance_files, recommendations, out) == 0
        redone = json.loads((out / "summary.json").read_text())["results"]
        assert redone["mode"] == "online"
        assert redone["requests"] == final_row["step"]
        for key in METRIC_COLUMNS:
            assert redone[key] == final_row[key]

    def test_online_round_trip(self, instance_files, tmp_path):
        self.online_round_trip(instance_files, tmp_path, "uniform")

    def test_online_round_trip_quality_weighted(self, instance_files, tmp_path):
        self.online_round_trip(instance_files, tmp_path, "quality-weighted")


class TestMetricsInputErrors:
    """`tfrom metrics` rejects a recommendations file that does not say
    exactly which lists were served, with exit code 2 and the line."""

    # provider and score are optional columns; most cases leave them out
    ONLINE_HEAD = "request,customer,rank,item\n"
    OFFLINE_HEAD = "customer,rank,item\n"

    def check(self, instance_files, tmp_path, capsys, text, message):
        recommendations = tmp_path / "recommendations.csv"
        recommendations.write_text(text, encoding="utf-8")
        assert run_metrics(instance_files, recommendations, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_non_integer_rank(self, instance_files, tmp_path, capsys):
        text = self.OFFLINE_HEAD + "0,1,0\n0,x,1\n"
        self.check(instance_files, tmp_path, capsys, text, ":3: rank 'x' is not an integer")

    def test_non_integer_request(self, instance_files, tmp_path, capsys):
        text = self.ONLINE_HEAD + "0.5,0,1,0\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":2: request '0.5' is not an integer"
        )

    @pytest.mark.parametrize("field", ["request", "rank"])
    @pytest.mark.parametrize("value", ["1_0", "\u0661"])
    def test_lenient_integer_rejected(self, instance_files, tmp_path, capsys, field, value):
        # Python's int() reads "1_0" as 10 and "\u0661" (Arabic-Indic one) as 1
        cells = {"request": "0", "customer": "0", "rank": "1", "item": "0", field: value}
        text = self.ONLINE_HEAD + ",".join(cells.values()) + "\n"
        self.check(
            instance_files, tmp_path, capsys, text, f":2: {field} {value!r} is not an integer"
        )

    def written_file_with(self, instance_files, tmp_path, column, change):
        """A topk recommendations file as written, with ``change`` applied to
        ``column`` on line 3."""
        assert run_offline(instance_files, tmp_path / "run") == 0
        lines = (tmp_path / "run" / "topk_k3" / "recommendations.csv").read_text().splitlines()
        position = lines[0].split(",").index(column)
        cells = lines[2].split(",")
        cells[position] = change(cells[position])
        lines[2] = ",".join(cells)
        return "\n".join(lines) + "\n", cells[position]

    def test_wrong_provider(self, instance_files, tmp_path, capsys):
        text, _ = self.written_file_with(
            instance_files, tmp_path, "provider", lambda cell: "nosuch"
        )
        self.check(instance_files, tmp_path, capsys, text, ":3: provider 'nosuch' of item")

    def test_wrong_score(self, instance_files, tmp_path, capsys):
        # one ulp off: the writer's 17 significant digits read back exactly
        def next_float(cell):
            return format(math.nextafter(float(cell), math.inf), ".17g")

        text, score = self.written_file_with(instance_files, tmp_path, "score", next_float)
        self.check(instance_files, tmp_path, capsys, text, f":3: score {score!r} of customer")

    def test_gapped_ranks(self, instance_files, tmp_path, capsys):
        text = self.ONLINE_HEAD + "0,0,1,0\n0,0,7,1\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":3: rank 7 in a list of 2 slots"
        )

    def test_duplicate_ranks(self, instance_files, tmp_path, capsys):
        text = self.OFFLINE_HEAD + "0,1,0\n0,1,1\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":3: rank 1 occurs twice in one list"
        )

    def test_header_only(self, instance_files, tmp_path, capsys):
        self.check(instance_files, tmp_path, capsys, self.ONLINE_HEAD, "no data rows")

    def test_request_names_two_lists(self, instance_files, tmp_path, capsys):
        text = self.ONLINE_HEAD + "0,0,1,0\n0,1,1,1\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":3: request 0 for customer '1' after request 0"
        )

    def test_requests_out_of_order(self, instance_files, tmp_path, capsys):
        text = self.ONLINE_HEAD + "5,0,1,0\n0,1,1,1\n0,1,2,2\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":3: request 0 for customer '1' after request 5"
        )

    def test_request_revisited(self, instance_files, tmp_path, capsys):
        # same customer, but request 0 comes back after request 1
        text = self.ONLINE_HEAD + "0,0,1,0\n1,1,1,1\n0,0,2,2\n"
        self.check(
            instance_files, tmp_path, capsys, text, ":4: request 0 for customer '0' after request 1"
        )

    def test_batch_lists_of_different_lengths(self, instance_files, tmp_path, capsys):
        # one list per customer, k=1 except customer 5's list of two
        rows = [f"{u},1,{u}\n" for u in range(6)] + ["5,2,9\n"]
        text = self.OFFLINE_HEAD + "".join(rows)
        self.check(
            instance_files, tmp_path, capsys, text, ":7: list of 2 slots after one of 1"
        )

    def test_increasing_requests_with_gaps_accepted(self, instance_files, tmp_path):
        text = self.ONLINE_HEAD + "2,0,1,0\n7,0,1,1\n9,3,1,2\n"
        recommendations = tmp_path / "recommendations.csv"
        recommendations.write_text(text)
        assert run_metrics(instance_files, recommendations, tmp_path / "out") == 0


class TestErrorHandling:
    def test_missing_required_flag_exits_one(self, instance_files, capsys):
        preferences, _ = instance_files
        code = main(
            ["offline", "--preferences", str(preferences), "--k", "3", "--out", "/tmp/x"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--providers" in err

    def test_unreadable_file_exits_two(self, tmp_path):
        code = main(
            [
                "offline",
                "--preferences",
                str(tmp_path / "missing.csv"),
                "--providers",
                str(tmp_path / "missing2.csv"),
                "--k",
                "3",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_malformed_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("customer,item,score\nu1,i1,oops\n")
        providers = tmp_path / "prov.csv"
        providers.write_text("item,provider\ni1,a\n")
        code = main(
            [
                "offline",
                "--preferences",
                str(bad),
                "--providers",
                str(providers),
                "--k",
                "1",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    def test_bad_algorithm_exits_one(self, instance_files, tmp_path):
        preferences, providers = instance_files
        code = main(
            [
                "offline",
                "--preferences",
                str(preferences),
                "--providers",
                str(providers),
                "--algorithms",
                "quicksort",
                "--k",
                "3",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["gen", "offline", "online"])
    def test_negative_seed_exits_one(self, instance_files, tmp_path, capsys, command):
        preferences, providers = instance_files
        if command == "gen":
            args = ["gen", "--m", "2", "--n", "3", "--l", "1"]
        else:
            args = [command, "--preferences", str(preferences), "--providers", str(providers)]
            args += ["--k", "3"]
        assert main(args + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_skew_exits_one(self, tmp_path, capsys):
        args = ["gen", "--m", "3", "--n", "12", "--l", "4", "--seed", "0"]
        assert main(args + ["--provider-size-skew", "1e-3", "--out", str(tmp_path / "out")]) == 1
        assert "provider size skew 0.001 is too small" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("position", ["header", "row"])
    @pytest.mark.parametrize("which", ["preferences", "providers", "recommendations"])
    def test_non_utf8_file_exits_two(self, instance_files, tmp_path, capsys, which, position):
        files = {
            "preferences": tmp_path / "preferences.csv",
            "providers": tmp_path / "providers.csv",
            "recommendations": tmp_path / "recommendations.csv",
        }
        for source in instance_files:
            (tmp_path / source.name).write_bytes(source.read_bytes())
        files["recommendations"].write_text(TestMetricsInputErrors.OFFLINE_HEAD + "0,1,0\n")
        bad = files[which]
        if position == "header":
            bad.write_bytes(b"\xff" + bad.read_bytes())
        else:
            # past the first decoded chunk, so the error comes from a data row
            bad.write_bytes(bad.read_bytes() + b"\n" * 20000 + b"\xff\n")
        code = run_metrics(
            (files["preferences"], files["providers"]), files["recommendations"], tmp_path / "out"
        )
        assert code == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

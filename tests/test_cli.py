"""End-to-end CLI workflow tests, driven through ``main()``."""

import json
import shutil

import pytest

from xlingua.cli import main

SPEC = dict(
    n_descriptors=8,
    n_train_docs=60,
    n_test_pairs=12,
    vocab_size_per_lang=300,
    rng_seed=21,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated corpus plus trained profiles and a length model."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    corpus = root / "corpus"
    assert main(["gen-corpus", "--spec", str(spec_path), "--out", str(corpus)]) == 0

    for lang in ("en", "es"):
        code = main([
            "train",
            "--corpus", str(corpus / "train_manifest.tsv"),
            "--thesaurus", str(corpus / "thesaurus.txt"),
            "--resources", str(corpus / "resources"),
            "--lang", lang,
            "--out", str(root / f"{lang}.prof"),
        ])
        assert code == 0

    # length model estimated from the generated training pairs
    from xlingua.similarity import LengthModel, estimate_length_model, save_length_model
    from xlingua.synthesis import SyntheticSpec, generate_synthetic

    gen = generate_synthetic(SyntheticSpec(**SPEC))
    pairs = gen.train.pairs
    model = LengthModel()
    model.set("en", "es", *estimate_length_model(pairs))
    model.set("es", "en", *estimate_length_model([(t, s) for s, t in pairs]))
    save_length_model(model, str(root / "model.lm"))
    return root


def test_gen_corpus_layout(workspace):
    corpus = workspace / "corpus"
    for name in ("spec.json", "thesaurus.txt", "train_manifest.tsv", "test_manifest.tsv"):
        assert (corpus / name).exists()


def test_train_writes_loadable_profiles(workspace):
    from xlingua.profiles import load_profiles

    ps = load_profiles(str(workspace / "en.prof"))
    assert ps.lang == "en"
    assert ps.profiles


def test_assign_outputs_ranked_descriptors(workspace, capsys, tmp_path):
    corpus = workspace / "corpus"
    doc = next((corpus / "docs").glob("te*-en.txt"))
    code = main([
        "assign",
        "--profiles", str(workspace / "en.prof"),
        "--doc", str(doc),
        "--resources", str(corpus / "resources"),
        "--thesaurus", str(corpus / "thesaurus.txt"),
        "--top", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 3
    cols = lines[0].split("\t")
    assert len(cols) == 4  # id, code, score, label
    assert 0.0 < float(cols[2]) <= 1.0


def test_similar_ranks_translation_first(workspace, capsys):
    corpus = workspace / "corpus"
    code = main([
        "similar",
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--query", "te0000-en",
        "--candidates", str(corpus / "test_manifest.tsv"),
        "--resources", str(corpus / "resources"),
        "--length-model", str(workspace / "model.lm"),
        "--top", "3",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = lines[0].split("\t")
    assert first[0] == "te0000-en"
    assert first[1] == "1"
    assert first[2] == "te0000-es"


def test_find_translations_reports_decision(workspace, capsys):
    corpus = workspace / "corpus"
    code = main([
        "find-translations",
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--query", "te0001-en",
        "--candidates", str(corpus / "test_manifest.tsv"),
        "--resources", str(corpus / "resources"),
        "--length-model", str(workspace / "model.lm"),
        "--threshold", "0.5",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    fields = out.splitlines()[0].split("\t")
    assert fields[0] == "te0001-en"
    assert fields[1] == "te0001-es" or fields[1] == "-"


@pytest.mark.parametrize("command", ["similar", "find-translations"])
def test_search_without_length_model_notes_that_the_length_factor_is_off(
    workspace, capsys, command
):
    corpus = workspace / "corpus"
    argv = [
        command,
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--query", "te0000-en",
        "--candidates", str(corpus / "test_manifest.tsv"),
        "--resources", str(corpus / "resources"),
    ]
    runs = {}
    for flags in ([], ["--no-lf"], ["--length-model", str(workspace / "model.lm")]):
        assert main(argv + flags) == 0
        runs[tuple(flags[:1])] = capsys.readouterr()
    assert runs[()].err == "note: no --length-model given, so the length factor is off\n"
    # the note changes nothing else: the output is that of an explicit --no-lf
    assert runs[()].out == runs[("--no-lf",)].out
    assert runs[("--no-lf",)].err == runs[("--length-model",)].err == ""


def test_find_translations_reports_zero_length_query_and_decides_the_rest(
    workspace, tmp_path, capsys
):
    corpus = workspace / "corpus"
    lines = []
    for line in (corpus / "test_manifest.tsv").read_text(encoding="utf-8").splitlines():
        doc_id, lang, rel_path, codes = line.split("\t")
        lines.append("\t".join([doc_id, lang, str(corpus / rel_path), codes]))
    n_src = sum(1 for line in lines if line.split("\t")[1] == "en")
    (tmp_path / "empty.txt").write_text("", encoding="utf-8")
    lines.insert(1, f"empty-en\ten\t{tmp_path / 'empty.txt'}\t")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([
        "find-translations",
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--candidates", str(manifest),
        "--resources", str(corpus / "resources"),
        "--length-model", str(workspace / "model.lm"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "empty-en" in captured.err
    decided = [line.split("\t")[0] for line in captured.out.strip().splitlines()]
    assert len(decided) == n_src and "empty-en" not in decided


def test_non_finite_length_model_exits_1_with_location(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.lm"
    bad.write_text("PAIR en es 1.1 0.05\nPAIR es en nan nan\n", encoding="utf-8")
    code = main([
        "similar",
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--query", "te0000-en",
        "--candidates", str(workspace / "corpus" / "test_manifest.tsv"),
        "--length-model", str(bad),
    ])
    assert code == 1
    assert f"{bad}:2:" in capsys.readouterr().err


def test_evaluate_t3_keeps_distractor_ids_apart(workspace, tmp_path):
    out = tmp_path / "t3.tsv"
    code = main([
        "evaluate", "--mode", "T3",
        "--spec", str(workspace / "spec.json"),
        "--out", str(out),
    ])
    assert code == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("T3\t12\t")


def test_dedupe_cli(workspace, tmp_path, capsys):
    text = " ".join(f"tok{i}" for i in range(200))
    (tmp_path / "a.txt").write_text(text, encoding="utf-8")
    (tmp_path / "b.txt").write_text(text + " tail", encoding="utf-8")
    (tmp_path / "c.txt").write_text(" ".join(f"other{i}" for i in range(200)), encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text(
        "a\ten\ta.txt\t\nb\ten\tb.txt\t\nc\ten\tc.txt\t\n", encoding="utf-8"
    )
    assert main(["dedupe", "--candidates", str(manifest)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    kept, removed, score = out[0].split("\t")
    assert (kept, removed) == ("a", "b")
    assert float(score) >= 0.95


def test_evaluate_writes_tsv_report(workspace, tmp_path):
    spec_path = workspace / "spec.json"
    out = tmp_path / "report.tsv"
    code = main([
        "evaluate", "--mode", "T1ES",
        "--spec", str(spec_path),
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mode\t")


def test_validation_error_exits_1(workspace, capsys):
    corpus = workspace / "corpus"
    code = main([
        "similar",
        "--profiles-src", str(workspace / "en.prof"),
        "--profiles-tgt", str(workspace / "es.prof"),
        "--query", "no-such-doc",
        "--candidates", str(corpus / "test_manifest.tsv"),
        "--resources", str(corpus / "resources"),
        "--no-lf",
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    code = main(["assign", "--profiles", "/nonexistent.prof", "--doc", "/nonexistent.txt"])
    assert code == 2


def test_dedupe_non_integer_manifest_code_exits_1(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("x", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\ten\ta.txt\t1,x\n", encoding="utf-8")
    assert main(["dedupe", "--candidates", str(manifest)]) == 1
    assert "m.tsv:1:" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["nan", "0", "1.5"])
def test_dedupe_threshold_outside_zero_one_exits_1(tmp_path, capsys, threshold):
    (tmp_path / "a.txt").write_text("some text", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\ten\ta.txt\t\n", encoding="utf-8")
    assert main(["dedupe", "--candidates", str(manifest), "--threshold", threshold]) == 1
    assert "threshold must be in (0, 1]" in capsys.readouterr().err


def test_dedupe_non_utf8_manifest_exits_1_with_location(tmp_path, capsys):
    (tmp_path / "a.txt").write_text("some text", encoding="utf-8")
    manifest = tmp_path / "m.tsv"
    manifest.write_bytes(b"a\ten\ta.txt\t\ncaf\xe9\ten\ta.txt\t\n")
    assert main(["dedupe", "--candidates", str(manifest)]) == 1
    assert f"{manifest}:2: not UTF-8 text" in capsys.readouterr().err


def test_dedupe_non_utf8_document_exits_1_naming_it(tmp_path, capsys):
    (tmp_path / "a.txt").write_bytes(b"caf\xe9 au lait")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a\ten\ta.txt\t\n", encoding="utf-8")
    assert main(["dedupe", "--candidates", str(manifest)]) == 1
    assert f"{tmp_path / 'a.txt'}:1: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["thesaurus", "profiles", "doc", "stopwords", "length-model"])
def test_every_loader_turns_non_utf8_into_exit_1(workspace, tmp_path, capsys, target):
    corpus = workspace / "corpus"
    shutil.copytree(corpus / "resources", tmp_path / "resources")
    files = {
        "thesaurus": corpus / "thesaurus.txt",
        "profiles": workspace / "en.prof",
        "doc": next((corpus / "docs").glob("te*-en.txt")),
        "stopwords": tmp_path / "resources" / "en" / "stopwords.txt",
        "length-model": workspace / "model.lm",
    }
    bad = files["stopwords"] if target == "stopwords" else tmp_path / "bad"
    bad.write_bytes(files[target].read_bytes() + b"caf\xe9\n")
    files[target] = bad
    if target == "length-model":
        argv = [
            "find-translations",
            "--profiles-src", str(files["profiles"]),
            "--profiles-tgt", str(workspace / "es.prof"),
            "--candidates", str(corpus / "test_manifest.tsv"),
            "--length-model", str(bad),
        ]
    else:
        argv = [
            "assign",
            "--profiles", str(files["profiles"]),
            "--doc", str(files["doc"]),
            "--resources", str(tmp_path / "resources"),
            "--thesaurus", str(files["thesaurus"]),
        ]
    assert main(argv) == 1
    n_lines = bad.read_bytes().count(b"\n")
    assert f"{bad}:{n_lines}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"n_descriptors": 8, "colour": "red"}',
        '{"n_descriptors": 8,',
        "[8, 60]",
        '{"n_test_pairs": 400}',  # rejected before generation, which would never end
        # json.load accepts NaN and Infinity; each used to end in a traceback
        '{"doc_length_mean": NaN}',
        '{"doc_length_std": NaN}',
        '{"target_length_inflation": NaN}',
        '{"target_length_inflation": Infinity}',
        '{"length_ratio_std": 1e308}',
        '{"target_length_inflation": 1e6}',  # targets of about 2.5e8 tokens
        '{"length_ratio_std": 1.0}',  # ratios down to 1.135 - sqrt(3) < 0
    ],
    ids=[
        "unknown-key",
        "bad-json",
        "not-an-object",
        "exploding-length-classes",
        "nan-length-mean",
        "nan-length-std",
        "nan-inflation",
        "infinite-inflation",
        "overflowing-ratio-std",
        "huge-inflation",
        "negative-ratio-band",
    ],
)
@pytest.mark.parametrize("command", ["gen-corpus", "evaluate"])
def test_bad_spec_file_exits_1(tmp_path, capsys, text, command):
    spec = tmp_path / "bad_spec.json"
    spec.write_text(text, encoding="utf-8")
    out = tmp_path / ("corpus" if command == "gen-corpus" else "report.tsv")
    extra = ["--mode", "T1ES"] if command == "evaluate" else []
    assert main([command, *extra, "--spec", str(spec), "--out", str(out)]) == 1
    assert "bad_spec.json" in capsys.readouterr().err

"""Command line interface.

Subcommands: train, assign, similar, find-translations, dedupe,
gen-corpus, evaluate.  Exit codes: 0 success, 1 validation/config error,
2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from xlingua.assign import DescriptorVector, assign
from xlingua.errors import XlinguaError, open_text
from xlingua.harness import (
    MODES,
    build_pipeline,
    report_to_tsv,
    run_experiment,
)
from xlingua.normalize import (
    LanguageResources,
    RawDocument,
    load_language_resources,
    normalize,
    read_manifest,
)
from xlingua.profiles import (
    IDF_LOG_N_OVER_DF,
    IDF_LOG_N_OVER_DF_PLUS_ONE,
    TrainingConfig,
    load_profiles,
    save_profiles,
    train_profiles,
)
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    dedupe,
    detect_translations,
    find_most_similar,
    load_length_model,
)
from xlingua.synthesis import SyntheticSpec, generate_synthetic, write_corpus
from xlingua.thesaurus import load_thesaurus


def _resources_for(args, lang: str) -> LanguageResources:
    if getattr(args, "resources", None):
        return load_language_resources(args.resources, lang)
    return LanguageResources(lang=lang)


def _cmd_train(args) -> int:
    docs = read_manifest(args.corpus)
    if args.lang:
        docs = [d for d in docs if d.lang == args.lang]
    langs = {d.lang for d in docs}
    if len(langs) != 1:
        raise XlinguaError(
            f"training corpus must be a single language (got {sorted(langs)}); use --lang"
        )
    lang = langs.pop()
    thesaurus = load_thesaurus(args.thesaurus)
    res = _resources_for(args, lang)
    config = TrainingConfig(
        min_doc_freq=args.min_doc_freq,
        g2_threshold=args.g2_threshold,
        max_associates=args.max_associates,
        idf_variant=args.idf_variant,
    )
    profiles = train_profiles((normalize(d, res) for d in docs), thesaurus, config)
    save_profiles(profiles, args.out)
    print(f"trained {len(profiles.profiles)} profiles ({lang}) from {len(docs)} documents")
    return 0


def _cmd_assign(args) -> int:
    profiles = load_profiles(args.profiles)
    with open_text(args.doc) as fh:
        text = fh.read()
    doc_id = args.id or os.path.splitext(os.path.basename(args.doc))[0]
    res = _resources_for(args, profiles.lang)
    doc = normalize(RawDocument(id=doc_id, lang=profiles.lang, text=text), res)
    vector = assign(doc, profiles, k=args.top)
    thesaurus = load_thesaurus(args.thesaurus) if args.thesaurus else None
    for code, score in vector.ranked():
        label = thesaurus.label_of(code, profiles.lang) if thesaurus else ""
        print(f"{doc_id}\t{code}\t{score:.6f}\t{label}")
    return 0


def _load_records(args) -> tuple[list[DocRecord], str]:
    """Assign every manifest document with the profile set for its language.

    Returns the records and the language of the source profile set.
    """
    src_profiles = load_profiles(args.profiles_src)
    tgt_profiles = load_profiles(args.profiles_tgt)
    profile_sets = {src_profiles.lang: src_profiles, tgt_profiles.lang: tgt_profiles}
    records = []
    for raw in read_manifest(args.candidates):
        if raw.lang not in profile_sets:
            raise XlinguaError(
                f"document {raw.id}: no profile set for language {raw.lang!r}"
            )
        res = _resources_for(args, raw.lang)
        doc = normalize(raw, res)
        records.append(
            DocRecord(
                vector=assign(doc, profile_sets[raw.lang], k=args.top_vector),
                char_length=doc.char_length,
            )
        )
    return records, src_profiles.lang


def _similarity_opts(args) -> tuple[SimilarityOptions, LengthModel | None]:
    model = load_length_model(args.length_model) if args.length_model else None
    if model is None and not args.no_lf:
        print("note: no --length-model given, so the length factor is off", file=sys.stderr)
    use_lf = model is not None and not args.no_lf
    opts = SimilarityOptions(
        use_length_factor=use_lf,
        same_language_bias=args.bias,
        threshold=getattr(args, "threshold", 0.70),
        top_k=args.top,
    )
    return opts, model


def _cmd_similar(args) -> int:
    records, _ = _load_records(args)
    by_id = {r.id: r for r in records}
    if args.query not in by_id:
        raise XlinguaError(f"query id {args.query!r} not found in candidates manifest")
    query = by_id[args.query]
    opts, model = _similarity_opts(args)
    matches = find_most_similar(query, records, opts, model)
    for m in matches:
        print(
            f"{args.query}\t{m.rank}\t{m.candidate_id}\t{m.candidate_lang}"
            f"\t{m.raw_cosine:.6f}\t{m.length_factor:.6f}\t{m.final_score:.6f}"
        )
    return 0


def _cmd_find_translations(args) -> int:
    records, src_lang = _load_records(args)
    opts, model = _similarity_opts(args)
    selected = (
        [r for r in records if r.id == args.query]
        if args.query
        else [r for r in records if r.lang == src_lang]
    )
    if not selected:
        raise XlinguaError("no query documents selected")
    # without a length ratio the length factor is undefined: report such a
    # query and decide the others
    has_ratio = [not opts.use_length_factor or q.char_length > 0 for q in selected]
    scorable = [q for q, ok in zip(selected, has_ratio) if ok]
    found = iter(detect_translations(scorable, records, opts, model))
    status = 0
    for q, ok in zip(selected, has_ratio):
        if not ok:
            print(f"error: query {q.id}: zero-length document has no length ratio", file=sys.stderr)
            status = 1
            continue
        match = next(found)
        if match is None:
            print(f"{q.id}\t-\t-")
        else:
            print(f"{q.id}\t{match.candidate_id}\t{match.final_score:.6f}")
    return status


def _cmd_dedupe(args) -> int:
    docs = read_manifest(args.candidates)
    _, report = dedupe(docs, threshold=args.threshold)
    for kept_id, removed_id, j in report:
        print(f"{kept_id}\t{removed_id}\t{j:.6f}")
    return 0


def _cmd_gen_corpus(args) -> int:
    spec = SyntheticSpec.from_json(args.spec) if args.spec else SyntheticSpec()
    corpus = generate_synthetic(spec)
    write_corpus(corpus, args.out)
    print(
        f"wrote {len(corpus.train)} training pairs and {len(corpus.test)} test pairs"
        f" to {args.out}"
    )
    return 0


def _t3_distractors(spec: SyntheticSpec) -> list[DocRecord]:
    """Target records of a second corpus (seed + 1): the T3 distractors."""
    second = generate_synthetic(dataclasses.replace(spec, rng_seed=spec.rng_seed + 1))
    # the second collection reuses the first one's ids; prefix them so
    # that a distractor is never taken for the true translation
    return [
        DocRecord(DescriptorVector(f"x-{r.id}", r.lang, r.vector.entries), r.char_length)
        for r in build_pipeline(second).tgt_records
    ]


def _cmd_evaluate(args) -> int:
    spec = SyntheticSpec.from_json(args.spec) if args.spec else SyntheticSpec()
    corpus = generate_synthetic(spec)
    pipeline = build_pipeline(corpus)
    opts = SimilarityOptions(threshold=args.threshold, same_language_bias=args.bias)
    extra = _t3_distractors(spec) if args.mode == "T3" else None
    report = run_experiment(pipeline, args.mode, opts, extra_targets=extra)
    text = report_to_tsv(report)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(
        f"{report.mode}: precision@1 no-LF {report.no_lf.precision_at_1:.4f},"
        f" LF {report.lf.precision_at_1:.4f} ({report.n_queries} queries)"
    )
    return 0


def _add_manifest_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profiles-src", required=True, help="profile set of the query language")
    p.add_argument("--profiles-tgt", required=True, help="profile set of the other language")
    p.add_argument("--candidates", required=True, help="corpus manifest of candidate documents")
    p.add_argument("--resources", help="language resource directory")
    p.add_argument("--length-model", help="length model file (PAIR lines)")
    p.add_argument("--bias", type=float, default=0.83, help="same-language bias factor")
    p.add_argument("--no-lf", action="store_true", help="disable the length factor")
    p.add_argument("--top", type=int, default=10, help="matches to return")
    p.add_argument("--top-vector", type=int, default=100, help="descriptor vector size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlingua",
        description="Cross-lingual translation detection via thesaurus descriptor vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train associate profiles from a manifest")
    p.add_argument("--corpus", required=True, help="corpus manifest (id, lang, path, codes)")
    p.add_argument("--thesaurus", required=True)
    p.add_argument("--resources", help="language resource directory")
    p.add_argument("--out", required=True, help="output profile set file")
    p.add_argument("--lang", help="restrict to one manifest language")
    p.add_argument("--min-doc-freq", type=int, default=2)
    p.add_argument("--g2-threshold", type=float, default=3.84)
    p.add_argument("--max-associates", type=int, default=300)
    p.add_argument(
        "--idf-variant",
        choices=[IDF_LOG_N_OVER_DF, IDF_LOG_N_OVER_DF_PLUS_ONE],
        default=IDF_LOG_N_OVER_DF_PLUS_ONE,
    )
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("assign", help="assign descriptors to one document")
    p.add_argument("--profiles", required=True)
    p.add_argument("--doc", required=True, help="plain-text document")
    p.add_argument("--top", type=int, default=100)
    p.add_argument("--resources", help="language resource directory")
    p.add_argument("--thesaurus", help="thesaurus file, used for labels")
    p.add_argument("--id", help="document id (default: file stem)")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("similar", help="rank candidates by similarity to a query")
    _add_manifest_search_args(p)
    p.add_argument("--query", required=True, help="query document id")
    p.set_defaults(func=_cmd_similar)

    p = sub.add_parser("find-translations", help="threshold decision per query document")
    _add_manifest_search_args(p)
    p.add_argument("--query", help="single query id (default: all source-language docs)")
    p.add_argument("--threshold", type=float, default=0.70)
    p.set_defaults(func=_cmd_find_translations)

    p = sub.add_parser("dedupe", help="report near-duplicate pairs in a manifest")
    p.add_argument("--candidates", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.set_defaults(func=_cmd_dedupe)

    p = sub.add_parser("gen-corpus", help="generate a synthetic bilingual corpus")
    p.add_argument("--spec", help="JSON spec file (default: built-in benchmark spec)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("evaluate", help="run one experiment mode on a synthetic corpus")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--spec", help="JSON spec file (default: built-in benchmark spec)")
    p.add_argument("--out", required=True, help="report output file (TSV)")
    p.add_argument("--threshold", type=float, default=0.70)
    p.add_argument("--bias", type=float, default=0.83)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except XlinguaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

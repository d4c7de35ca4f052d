"""The benchmark's three workloads: input generators, closed-loop runners, checks.

Every workload is one client in one process issuing one operation at a
time (a closed loop).  Its inputs come from the seed alone; xlingua sees
only the generated documents.  A workload object has

* ``setup(rec)``: build everything the measured operations need and
  return the seconds spent in xlingua calls;
* ``run_pass(rec, k)``: one pass over the workload's fixed operations,
  returning each operation's latency in seconds, in the same order every
  pass;
* ``work``: the logical work units of one pass, and ``op_s(best)``: the
  operation time reported from the per-operation best latencies;
* ``attempted``, ``failed`` and ``problems``: operations issued, operations
  that raised unexpectedly or disagreed with the oracle, and why;
* ``figures(best)`` and ``layers(rec, units)``: the workload's own named
  end-to-end figures, and its per-layer metrics from a traced run.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time

import oracle
from xlingua import harness
from xlingua.assign import assign
from xlingua.errors import XlinguaError
from xlingua.harness import build_pipeline, run_experiment
from xlingua.normalize import RawDocument, normalize
from xlingua.profiles import train_profiles
from xlingua.similarity import (
    DocRecord,
    LengthModel,
    SimilarityOptions,
    dedupe,
    detect_translation,
    estimate_length_model,
    find_most_similar,
)
from xlingua.synthesis import SyntheticSpec, generate_synthetic

# The modes with distinct candidate-set shapes; T1SE, T3, BIL and THBIL
# run the same scoring code over sets of these shapes.
MATRIX_MODES = ("T1ES", "T1ESLF", "BILW", "THBILW")
MIN_T1ES_LF_P_AT_1 = 0.95
STREAM_BIAS = 0.83
STREAM_THRESHOLD = 0.70
STREAM_TOP_K = 10
EMPTY_SHARE = 0.01
PLANT_SHARE = 0.05
DEDUPE_THRESHOLD = 0.95

# Corpus sizes.  Thesaurus and vocabulary are four times the default spec,
# which gives descriptor vectors the density of the scaled evaluation.
# Document counts are cut so that one 30-second run of any workload ends
# within about 40 s on a 2-core machine, and so that operations stay short:
# on a shared host the interpreter runs at full speed only in bursts of a
# few milliseconds and about 1.5 times slower in between, so only a short
# operation's best repeat is steady from run to run.
SIZES = {
    False: {
        "matrix": dict(spec=dict(n_descriptors=120, n_train_docs=600, n_test_pairs=20,
                                 vocab_size_per_lang=4000), oracle_queries=8),
        "stream": dict(spec=dict(n_descriptors=120, n_train_docs=600, n_test_pairs=60,
                                 vocab_size_per_lang=4000), base_pairs=10, oracle_share=0.1),
        "dedupe": dict(spec=dict(n_descriptors=120, n_train_docs=100, n_test_pairs=1,
                                 vocab_size_per_lang=4000)),
    },
    True: {  # smoke: seconds per run, for the benchmark's own tests
        "matrix": dict(spec=dict(n_descriptors=12, n_train_docs=80, n_test_pairs=12,
                                 vocab_size_per_lang=400), oracle_queries=100),
        "stream": dict(spec=dict(n_descriptors=12, n_train_docs=80, n_test_pairs=20,
                                 vocab_size_per_lang=400), base_pairs=4, oracle_share=1.0),
        "dedupe": dict(spec=dict(n_descriptors=12, n_train_docs=60, n_test_pairs=1,
                                 vocab_size_per_lang=400)),
    },
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p50 with at least ten samples beyond it."""
    for q in (99, 95, 90, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        sizes = SIZES[smoke][self.name]
        self.seed = seed
        self.spec = SyntheticSpec(rng_seed=seed, **sizes["spec"])
        self.params = {k: v for k, v in sizes.items() if k != "spec"}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def provenance(self) -> dict:
        return {"spec": dataclasses.asdict(self.spec), **self.params}

    def op_s(self, best: list[float]) -> float:
        """Median operation."""
        return statistics.median(best)

    def _problem(self, msg: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(msg)

    def _fail(self, msg: str) -> None:
        self.failed += 1
        self._problem(msg)

    def _timed(self, rec, fn, *args):
        t0 = time.perf_counter()
        result = rec.call(fn, *args)
        return result, time.perf_counter() - t0


class Matrix(Workload):
    """Offline evaluation: build_pipeline once, then the experiment modes."""

    name = "matrix"

    def setup(self, rec) -> float:
        corpus, t_gen = self._timed(rec, generate_synthetic, self.spec)
        names = ("normalize", "train_profiles", "assign", "estimate_length_model")
        if rec.enabled:
            with rec.wrapped(harness, names):
                self.pipeline, t_build = self._timed(rec, build_pipeline, corpus)
        else:
            self.pipeline, t_build = self._timed(rec, build_pipeline, corpus)
        self.first: dict[str, object] = {}
        self.work = sum(self._pairs(m) for m in MATRIX_MODES)
        return t_gen + t_build

    def _sets(self, mode: str):
        """Queries, candidates, bias and LF-only flag, as the mode table defines them."""
        p = self.pipeline
        src, tgt = p.src_records, p.tgt_records
        bias = SimilarityOptions().same_language_bias
        if mode in ("T1ES", "T1ESLF"):
            return src, tgt, 1.0, mode == "T1ESLF"
        if mode == "BILW":
            return src, src + tgt, bias, False
        half = list(range(0, len(src), 2))
        return [src[i] for i in half], [src[i] for i in half] + [tgt[i] for i in half], bias, False

    def _pairs(self, mode: str) -> int:
        """Query x candidate pairs ranked per mode, both length-factor variants."""
        queries, cands, _, _ = self._sets(mode)
        ids = {c.id for c in cands}
        return 2 * sum(len(cands) - (q.id in ids) for q in queries)

    def op_s(self, best: list[float]) -> float:
        """One pass: the four modes."""
        return sum(best)

    def run_pass(self, rec, k: int):
        latencies = []
        for mode in MATRIX_MODES:
            rec.op = f"pass{k}:{mode}"
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                report = rec.call(run_experiment, self.pipeline, mode)
            except XlinguaError as exc:
                report = None
                self._fail(f"{mode}: {exc!r}")
            latencies.append(time.perf_counter() - t0)
            if report is None:
                continue
            if mode not in self.first:
                self.first[mode] = report
                self._check(mode, report)
            elif report != self.first[mode]:
                self._fail(f"{mode}: pass {k} report differs from the first pass")
        return latencies

    def _check(self, mode: str, report) -> None:
        queries, cands, bias, lf_only = self._sets(mode)
        truth = self.pipeline.truth
        model = self.pipeline.length_model
        threshold = SimilarityOptions().threshold
        rng = random.Random(f"{self.seed}:{mode}")
        sample = rng.sample(range(len(queries)), min(self.params["oracle_queries"], len(queries)))
        wrong = False
        for use_lf, variant in ((False, report.no_lf), (True, report.lf)):
            for i in sample:
                q = queries[i]
                ranking = oracle.rank(q, cands, model, use_lf, bias, lf_only)
                best = ranking[0][1]
                ties = {cid for cid, s in ranking if abs(s - best) <= oracle.SCORE_TOLERANCE}
                got_ok, got_best = variant.outcomes[i]
                if (
                    abs(got_best - best) > oracle.SCORE_TOLERANCE
                    or got_ok not in {cid == truth[q.id] for cid in ties}
                    or (got_best >= threshold) != (best >= threshold)
                ):
                    wrong = True
                    self._problem(
                        f"{mode} lf={use_lf} query {q.id}: got {(got_ok, got_best)!r},"
                        f" oracle best {ranking[0]!r}"
                    )
        if mode == "T1ES" and report.lf.precision_at_1 < MIN_T1ES_LF_P_AT_1:
            wrong = True
            self._problem(f"T1ES LF P@1 {report.lf.precision_at_1} < {MIN_T1ES_LF_P_AT_1}")
        if wrong:
            self.failed += 1

    def figures(self, best: list[float]):
        rows = [("matrix_pairs_per_s", self.work / sum(best), "1/s")]
        rows += [(f"mode_{mode}_s", secs, "s") for mode, secs in zip(MATRIX_MODES, best)]
        t1es = self.first.get("T1ES")
        if t1es is not None:
            rows.append(("T1ES_lf_p_at_1", t1es.lf.precision_at_1, "share"))
        return rows

    def layers(self, rec, units) -> dict[str, float]:
        out = {f"harness.mode.{m}_s": 0.0 for m in MATRIX_MODES}
        for s in rec.spans:
            if s.name == "harness.run_experiment":
                mode = s.op.split(":")[1]
                out[f"harness.mode.{mode}_s"] += (s.end - s.start) / units["run"]
        out["harness.pairs"] = self.work
        return out


class Stream(Workload):
    """Online detection: each arriving document is ingested, searched, then indexed."""

    name = "stream"

    def setup(self, rec) -> float:
        corpus, secs = self._timed(rec, generate_synthetic, self.spec)
        res = corpus.resources
        src_lang, tgt_lang = self.spec.src_lang, self.spec.tgt_lang
        train = []
        for s, t in corpus.train.pairs:
            ns, a = self._timed(rec, normalize, s, res[s.lang])
            nt, b = self._timed(rec, normalize, t, res[t.lang])
            train.append((ns, nt))
            secs += a + b
        self.profiles = {}
        for lang, docs in ((src_lang, [s for s, _ in train]), (tgt_lang, [t for _, t in train])):
            self.profiles[lang], a = self._timed(rec, train_profiles, docs, corpus.thesaurus)
            secs += a
        self.model = LengthModel()
        for (q, c), pairs in (((src_lang, tgt_lang), train), ((tgt_lang, src_lang), [(t, s) for s, t in train])):
            (mu, sigma), a = self._timed(rec, estimate_length_model, pairs)
            self.model.set(q, c, mu, sigma)
            secs += a
        self.resources = res
        n_base = self.params["base_pairs"]
        self.base: list[DocRecord] = []
        for doc in (d for pair in corpus.test.pairs[:n_base] for d in pair):
            record, a = self._ingest(rec, doc)
            self.base.append(record)
            secs += a
        self.arrivals, self.truth = stream_arrivals(corpus.test.pairs[n_base:], self.seed)
        rng = random.Random(f"{self.seed}:oracle")
        n = len(self.arrivals)
        self.sample = set(rng.sample(range(n), max(1, round(self.params["oracle_share"] * n))))
        self.work = len(self.arrivals)
        self.first: list[tuple | None] = []
        self.ingest_s: list[float] = []
        self.search_s: list[float] = []
        return secs

    def _ingest(self, rec, doc: RawDocument):
        t0 = time.perf_counter()
        norm = rec.call(normalize, doc, self.resources[doc.lang])
        vector = rec.call(assign, norm, self.profiles[doc.lang])
        record = DocRecord(vector=vector, char_length=norm.char_length)
        return record, time.perf_counter() - t0

    def run_pass(self, rec, k: int):
        opts = SimilarityOptions(
            use_length_factor=True, same_language_bias=STREAM_BIAS, threshold=STREAM_THRESHOLD
        )
        pool = list(self.base)
        latencies = []
        # every pass replays the same arrivals, so the counts are per pass
        self.hits = self.hits_correct = self.refused = self.candidates = 0
        for i, doc in enumerate(self.arrivals):
            rec.op = f"pass{k}:arrival{i}"
            self.attempted += 1
            with rec.span("bench.arrival"):
                record, ingest = self._ingest(rec, doc)
                t0 = time.perf_counter()
                try:
                    match = rec.call(detect_translation, record, pool, opts, self.model)
                    refused = None
                except XlinguaError as exc:
                    match, refused = None, exc
                search = time.perf_counter() - t0
            self.ingest_s.append(ingest)
            self.search_s.append(search)
            latencies.append(ingest + search)
            self.candidates += len(pool)
            self.refused += refused is not None
            if match is not None:
                self.hits += 1
                self.hits_correct += match.candidate_id == self.truth.get(doc.id)
            self._check(k, i, doc, record, pool, opts, match, refused)
            pool.append(record)
        return latencies

    def _check(self, k, i, doc, record, pool, opts, match, refused) -> None:
        outcome = None if match is None else (match.candidate_id, match.final_score)
        if i < len(self.first):
            if outcome != self.first[i]:
                self._fail(f"pass {k} arrival {doc.id}: {outcome!r} != first pass {self.first[i]!r}")
            return
        self.first.append(outcome)
        if not doc.text:
            # An empty query has no length ratio: refusing it or finding no
            # translation are both correct, a match is not.
            if match is not None:
                self._fail(f"empty arrival {doc.id} matched {outcome!r}")
            return
        if refused is not None:
            self._fail(f"arrival {doc.id}: {refused!r}")
            return
        if i not in self.sample:
            return
        want = oracle.rank(record, pool, self.model, True, opts.same_language_bias)
        top = find_most_similar(
            record, pool, dataclasses.replace(opts, top_k=STREAM_TOP_K), self.model
        )
        got = [(m.candidate_id, m.final_score) for m in top]
        bad = oracle.ranking_mismatch(got, want[:STREAM_TOP_K])
        want_hit = want[0] if want[0][1] >= opts.threshold else None
        if bad is None and (outcome is None) != (want_hit is None):
            bad = f"hit {outcome!r} != oracle {want_hit!r}"
        if bad is None and outcome is not None:
            bad = oracle.ranking_mismatch([outcome], want[:1])
        if bad is not None:
            self._fail(f"arrival {doc.id}: {bad}")

    def figures(self, best: list[float]):
        rows = [("stream_docs_per_s", self.work / sum(best), "1/s")]
        n = len(self.search_s)
        arrivals = len(self.arrivals)
        tail = tail_percentile(n)
        for op, values in (("search", self.search_s), ("ingest", self.ingest_s)):
            rows.append((f"{op}_p50_ms", 1000 * statistics.median(values), "ms"))
            if tail is not None and tail != 50:
                rows.append((f"{op}_p{tail}_ms", 1000 * percentile(values, tail), "ms"))
        rows += [
            ("samples", n, "count"),
            ("refused_share", self.refused / arrivals, "share"),
            ("hit_share", self.hits / arrivals, "share"),
        ]
        return rows

    def layers(self, rec, units) -> dict[str, float]:
        arrivals = len(self.arrivals)
        return {
            "similarity.search_s": rec.per_unit(units)["call.similarity.detect_translation"],
            "similarity.attempts": arrivals,
            "similarity.candidates_scored": self.candidates,
            "similarity.hits": self.hits,
            "similarity.hit_share": self.hits / arrivals,
            "similarity.hits_correct": self.hits_correct,
        }


def stream_arrivals(pairs, seed: int):
    """The arriving documents in seeded order, with empty documents planted.

    Returns the documents and each document's true translation id.
    """
    rng = random.Random(f"{seed}:arrivals")
    docs = [d for pair in pairs for d in pair]
    truth = {s.id: t.id for s, t in pairs} | {t.id: s.id for s, t in pairs}
    rng.shuffle(docs)
    langs = sorted({d.lang for d in docs})
    for j in range(max(1, round(EMPTY_SHARE * len(docs)))):
        lang = rng.choice(langs)
        docs.insert(rng.randrange(len(docs) + 1), RawDocument(id=f"empty{j:03d}-{lang}", lang=lang, text=""))
    return docs, truth


class Dedupe(Workload):
    """Collection cleaning: one dedupe call over single-language documents."""

    name = "dedupe"

    def setup(self, rec) -> float:
        corpus, secs = self._timed(rec, generate_synthetic, self.spec)
        texts = [d.text for d in corpus.train.sources()]
        self.docs, self.expected, self.near_misses = plant_near_duplicates(
            texts, self.spec.src_lang, self.seed
        )
        self.planted = len(self.expected)
        removed = {b for _, b, _ in self.expected}
        self.expected_kept = [d.id for d in self.docs if d.id not in removed]
        self.removed = 0
        n = len(self.docs)
        self.work = n * (n - 1) // 2
        return secs

    def run_pass(self, rec, k: int):
        rec.op = f"pass{k}:dedupe"
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            kept, report = rec.call(dedupe, self.docs, DEDUPE_THRESHOLD)
        except XlinguaError as exc:
            self._fail(f"dedupe: {exc!r}")
            return [time.perf_counter() - t0]
        secs = time.perf_counter() - t0
        self.removed = len(self.docs) - len(kept)
        got = sorted(report)
        if [d.id for d in kept] != self.expected_kept or len(got) != len(self.expected) or any(
            (a, b) != (x, y) or abs(j - z) > oracle.SCORE_TOLERANCE
            for (a, b, j), (x, y, z) in zip(got, self.expected)
        ):
            self._fail(f"dedupe pass {k}: report {got!r} != planted {self.expected!r}")
        return [secs]

    def figures(self, best: list[float]):
        return [
            ("dedupe_s", best[0], "s"),
            ("dedupe_pairs_per_s", self.work / best[0], "1/s"),
            ("documents", len(self.docs), "count"),
            ("planted_duplicates", self.planted, "count"),
        ]

    def layers(self, rec, units) -> dict[str, float]:
        n = len(self.docs)
        return {
            "similarity.dedupe_s": rec.per_unit(units)["call.similarity.dedupe"],
            "similarity.dedupe.pairs": n * (n - 1) // 2,
            "similarity.dedupe.removed": self.removed,
            "similarity.dedupe.planted": self.planted,
            "similarity.dedupe.removed_share": self.removed / self.planted,
        }


def _edit(text: str, vocab: list[str], rng: random.Random, near_miss: bool):
    """Substitute random tokens until the shingle Jaccard to ``text`` crosses
    DEDUPE_THRESHOLD.  A near-miss is the first edit below it (rejected unless
    within 0.05 of it); a near-duplicate is a random earlier edit at or above."""
    original = oracle.shingles(text)
    while True:
        tokens = text.split(" ")
        above = []
        while True:
            pos = rng.randrange(len(tokens))
            old = tokens[pos]
            while tokens[pos] == old:
                tokens[pos] = rng.choice(vocab)
            candidate = " ".join(tokens)
            j = oracle.jaccard(original, oracle.shingles(candidate))
            if j < DEDUPE_THRESHOLD:
                break
            above.append((candidate, j))
        if near_miss and j >= DEDUPE_THRESHOLD - 0.05:
            return candidate, j
        if not near_miss and above:
            return rng.choice(above)


def plant_near_duplicates(texts: list[str], lang: str, seed: int):
    """Documents with planted near-duplicates and near-misses, ids shuffled.

    Returns (documents, near-duplicates, near-misses), each pair list
    sorted and holding (earlier id, later id, Jaccard); dedupe must report
    exactly the near-duplicates.
    """
    rng = random.Random(f"{seed}:dedupe")
    n_plant = max(1, round(PLANT_SHARE * len(texts)))
    bases = rng.sample(range(len(texts)), 2 * n_plant)
    vocab = sorted({w for t in texts for w in t.split(" ")})
    all_texts = list(texts)
    pairs: dict[bool, list] = {False: [], True: []}
    for j, b in enumerate(bases):
        near_miss = j >= n_plant
        variant, jac = _edit(texts[b], vocab, rng, near_miss)
        all_texts.append(variant)
        pairs[near_miss].append((b, len(all_texts) - 1, jac))
    order = list(range(len(all_texts)))
    rng.shuffle(order)
    ids = [f"d{order[i]:05d}" for i in range(len(all_texts))]
    docs = [RawDocument(id=ids[i], lang=lang, text=t) for i, t in enumerate(all_texts)]
    near_dups, near_misses = (
        sorted((*sorted((ids[a], ids[b])), jac) for a, b, jac in pairs[flag]) for flag in (False, True)
    )
    return docs, near_dups, near_misses


WORKLOADS = {w.name: w for w in (Matrix, Stream, Dedupe)}

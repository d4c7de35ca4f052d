"""Seeded synthetic bilingual corpus generator for desk-scale evaluation.

Two disjoint vocabularies are linked by a hidden index bijection; each
descriptor owns a block of topic lemmas per language.  A document draws
1-4 descriptors with Dirichlet mixture weights and samples tokens from
their blocks plus background noise.  The paired target document is an
independent re-expression of the same topic draw in the target
vocabulary, with its length inflated on average by a configured factor.

A small share of test pairs are planted "twins": distinct pairs built on
the same single descriptor, statistically indistinguishable by content
alone.  Those play the role of the near-identical distractors that the
length factor and same-language bias corrections are meant to resolve.
To keep the two corrections informative rather than confounded, test
pairs are stratified into length classes via a greedy colouring of their
topic-overlap graph: pairs whose topic sets intersect land in different
classes (so confusable documents sit at implausible length ratios),
while same-class documents are topic-disjoint (so the many candidates
near the expected ratio carry no content signal).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from xlingua.errors import ConfigError, ValidationError
from xlingua.kernels import ordered_sum
from xlingua.normalize import LanguageResources, RawDocument
from xlingua.thesaurus import Descriptor, Thesaurus

_STOPWORD_RATE = 0.05
_MIN_TOKENS = 30
_SQRT3 = 3.0 ** 0.5
# Length-class geometry: adjacent classes differ by 35% so any cross-class
# ratio sits several sigmas away from the expected inflation.
_CLASS_GROWTH = 1.35
# Share of test pairs planted as single-topic twin groups of two.
_TWIN_RATE = 0.14
# Most source tokens a spec may plan for one test document.  Class c has
# about doc_length_mean * 1.35**c tokens, so a spec with a few hundred
# length classes would plan documents that never finish generating.
MAX_SOURCE_TOKENS = 100_000
# Most target tokens: a target is its source times the length ratio, so it
# gets room for a ratio of up to 2 at the source cap.
MAX_TARGET_TOKENS = 2 * MAX_SOURCE_TOKENS


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned document pairs; pair i of each side share a pair id prefix."""

    pairs: tuple[tuple[RawDocument, RawDocument], ...]
    src_lang: str
    tgt_lang: str

    def sources(self) -> list[RawDocument]:
        return [s for s, _ in self.pairs]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SyntheticSpec:
    n_descriptors: int = 30
    n_train_docs: int = 300
    n_test_pairs: int = 100
    vocab_size_per_lang: int = 1000
    lemmas_per_descriptor: int = 20
    doc_length_mean: float = 250.0
    doc_length_std: float = 4.0
    target_length_inflation: float = 1.135
    length_ratio_std: float = 0.05
    noise_rate: float = 0.3
    max_topics_per_doc: int = 4
    rng_seed: int = 42
    src_lang: str = "en"
    tgt_lang: str = "es"

    def __post_init__(self) -> None:
        for name in (
            "n_descriptors",
            "n_train_docs",
            "n_test_pairs",
            "vocab_size_per_lang",
            "lemmas_per_descriptor",
        ):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value!r}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValidationError("noise_rate must be in [0, 1)")
        if not 1 <= self.max_topics_per_doc <= 4:
            raise ValidationError("max_topics_per_doc must be in 1..4")
        if self.doc_length_mean <= 0 or self.doc_length_std < 0:
            raise ValidationError("doc length parameters must be positive")
        if self.target_length_inflation <= 0 or self.length_ratio_std <= 0:
            raise ValidationError("length inflation parameters must be positive")
        if self.src_lang == self.tgt_lang:
            raise ValidationError("source and target language must differ")
        needed = self.n_descriptors * self.lemmas_per_descriptor + 50
        if self.vocab_size_per_lang < needed:
            raise ValidationError(
                f"vocab_size_per_lang {self.vocab_size_per_lang} too small;"
                f" need at least {needed} for topic blocks plus background"
            )
        _, _, n_classes = _class_plan(self)
        # longest planned source: top class, full jitter; longest target: that
        # source at the top of the ratio band (in logs, since the geometry
        # can overflow a float)
        longest = math.log(self.doc_length_mean + self.doc_length_std)
        longest += (n_classes - 1) * math.log(_CLASS_GROWTH)
        if longest > math.log(MAX_SOURCE_TOKENS):
            raise ValidationError(
                f"{self.n_test_pairs} test pairs over {self.n_descriptors} descriptors make"
                f" {n_classes} length classes; the longest source document would have"
                f" more than {MAX_SOURCE_TOKENS:,} tokens"
            )
        top_ratio = self.target_length_inflation + _SQRT3 * self.length_ratio_std
        if longest + math.log(top_ratio) > math.log(MAX_TARGET_TOKENS):
            raise ValidationError(
                f"target_length_inflation {self.target_length_inflation} and length_ratio_std"
                f" {self.length_ratio_std} make the longest target document more than"
                f" {MAX_TARGET_TOKENS:,} tokens"
            )
        # _make_pair draws target/source ratios from this band; below 0 they
        # would all be clamped to _MIN_TOKENS and skew the configured ratios
        bottom_ratio = self.target_length_inflation - self.length_ratio_std * _SQRT3
        if bottom_ratio <= 0:
            raise ValidationError(
                f"target_length_inflation {self.target_length_inflation} and length_ratio_std"
                f" {self.length_ratio_std} put the bottom of the target/source length ratio"
                f" band, inflation - sqrt(3) * std = {bottom_ratio:.4g}, at or below 0"
            )

    @staticmethod
    def from_json(path: str) -> "SyntheticSpec":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a JSON object, got {type(data).__name__}")
        kinds = {f.name: type(f.default) for f in dataclasses.fields(SyntheticSpec)}
        for key, value in data.items():
            if key not in kinds:
                raise ConfigError(f"{path}: unknown spec key {key!r}")
            kind = kinds[key]
            # JSON has one number type: a float field takes an integer too
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ConfigError(f"{path}: {key} must be {kind.__name__}, got {value!r}")
        try:
            return SyntheticSpec(**data)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass(frozen=True)
class SyntheticCorpus:
    spec: SyntheticSpec
    thesaurus: Thesaurus
    resources: dict[str, LanguageResources]
    train: ParallelCorpus
    test: ParallelCorpus


def _word(lang: str, idx: int) -> str:
    return f"{lang}w{idx:05d}"


def _stopwords(lang: str) -> list[str]:
    return [f"{lang}stop{i}" for i in range(5)]


def _make_thesaurus(spec: SyntheticSpec) -> Thesaurus:
    descriptors = {}
    n = spec.n_descriptors
    for code in range(1, n + 1):
        broader = frozenset({code - 1}) if code % 5 == 0 and code > 1 else frozenset()
        narrower = frozenset({code + 1}) if (code + 1) % 5 == 0 and code + 1 <= n else frozenset()
        related = frozenset()
        if code % 7 == 0 and code + 2 <= n:
            related = frozenset({code + 2})
        elif code % 7 == 2 and code - 2 >= 1 and (code - 2) % 7 == 0:
            related = frozenset({code - 2})
        descriptors[code] = Descriptor(
            code=code,
            labels={
                spec.src_lang: f"TOPIC {code:03d} {spec.src_lang.upper()}",
                spec.tgt_lang: f"TOPIC {code:03d} {spec.tgt_lang.upper()}",
            },
            broader=broader,
            narrower=narrower,
            related=related,
            field_id=(code - 1) % 5 + 1,
            microthesaurus_id=(code - 1) % 10 + 1,
        )
    return Thesaurus(descriptors=descriptors, languages=(spec.src_lang, spec.tgt_lang))


_WEIGHT_ALPHA = 4.0  # flat-ish Dirichlet: no topic dominates a mixture


def _mix_weights(n: int, rng: random.Random) -> tuple[float, ...]:
    raw = [rng.gammavariate(_WEIGHT_ALPHA, 1.0) for _ in range(n)]
    total = ordered_sum(raw)
    return tuple(w / total for w in raw)


def _draw_topics(spec: SyntheticSpec, rng: random.Random) -> tuple[tuple[int, ...], tuple[float, ...]]:
    n_topics = rng.randint(1, min(spec.max_topics_per_doc, spec.n_descriptors))
    codes = tuple(sorted(rng.sample(range(1, spec.n_descriptors + 1), n_topics)))
    return codes, _mix_weights(n_topics, rng)


def _class_plan(spec: SyntheticSpec) -> tuple[int, int, int]:
    """(twin groups, descriptors per multi-topic set, length classes).

    Each length class holds as many multi-topic sets as the descriptors
    left after the twin groups allow without sharing one.
    """
    n_groups = min(round(_TWIN_RATE * spec.n_test_pairs / 2), max(0, spec.n_descriptors - 2))
    pool = spec.n_descriptors - n_groups
    set_size = min(2, spec.max_topics_per_doc, pool)
    per_class = max(1, pool // set_size)
    n_multi = spec.n_test_pairs - 2 * n_groups
    return n_groups, set_size, max(2 if n_groups else 1, -(-n_multi // per_class))


def _test_plan(spec: SyntheticSpec, rng: random.Random) -> list[tuple[tuple[int, ...], int]]:
    """Topic set and length class for every test pair.

    Twin groups reserve one descriptor each and split their two pairs
    across adjacent length classes.  The remaining pairs take
    two-descriptor sets drawn per class from a fresh random matching of
    the leftover descriptors, so sets inside one class never share a
    descriptor while any two confusable sets land in different classes.
    """
    n_groups, set_size, n_classes = _class_plan(spec)
    pool = list(range(n_groups + 1, spec.n_descriptors + 1))
    n_multi = spec.n_test_pairs - 2 * n_groups
    plan: list[tuple[tuple[int, ...], int]] = []
    for g in range(n_groups):
        c = (2 * g) % n_classes
        plan.append(((g + 1,), c))
        plan.append(((g + 1,), (c + 1) % n_classes))
    base, extra = divmod(n_multi, n_classes)
    for c in range(n_classes):
        take = base + (1 if c < extra else 0)
        shuffled = rng.sample(pool, len(pool))
        for k in range(take):
            plan.append((tuple(sorted(shuffled[set_size * k : set_size * (k + 1)])), c))
    rng.shuffle(plan)
    return plan


def _sample_tokens(
    spec: SyntheticSpec,
    lang: str,
    words: dict[str, tuple[str, ...]],
    codes: tuple[int, ...],
    weights: tuple[float, ...],
    n_tokens: int,
    rng: random.Random,
) -> list[str]:
    """``n_tokens`` topic or background words, each maybe followed by a stopword.

    The draws are those of the plain loop

        if rng.random() < noise_rate: idx = rng.randrange(bg_lo, bg_hi)
        else: idx = (rng.choices(codes, weights)[0] - 1) * lpd + rng.randrange(lpd)
        if rng.random() < _STOPWORD_RATE: rng.choice(stop)

    with each call unrolled as CPython 3.11 runs it.  ``choices`` picks
    ``bisect(cum_weights, random() * total, 0, n - 1)``; ``randrange(a, b)``,
    ``randrange(n)`` and ``choice(seq)`` each reduce to
    ``_randbelow_with_getrandbits(n)``: ``k = n.bit_length()``, then
    ``getrandbits(k)`` until the result is below ``n``.  The same random
    numbers are drawn in the same order, so the corpus is byte-identical
    to the plain loop's; the corpus digests pinned in
    ``tests/test_synthesis.py`` enforce it.
    """
    random_ = rng.random
    getrandbits = rng.getrandbits
    noise_rate = spec.noise_rate
    lpd = spec.lemmas_per_descriptor
    lpd_bits = lpd.bit_length()
    bg_lo = spec.n_descriptors * lpd
    bg_n = spec.vocab_size_per_lang - bg_lo
    bg_bits = bg_n.bit_length()
    vocab = words[lang]
    stop = _stopwords(lang)
    n_stop = len(stop)
    stop_bits = n_stop.bit_length()
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    hi = len(cum) - 1
    block_start = [(code - 1) * lpd for code in codes]
    tokens: list[str] = []
    append = tokens.append
    for _ in range(n_tokens):
        if random_() < noise_rate:
            r = getrandbits(bg_bits)
            while r >= bg_n:
                r = getrandbits(bg_bits)
            append(vocab[bg_lo + r])
        else:
            start = block_start[bisect(cum, random_() * total, 0, hi)]
            r = getrandbits(lpd_bits)
            while r >= lpd:
                r = getrandbits(lpd_bits)
            append(vocab[start + r])
        if random_() < _STOPWORD_RATE:
            r = getrandbits(stop_bits)
            while r >= n_stop:
                r = getrandbits(stop_bits)
            append(stop[r])
    return tokens


def _make_pair(
    spec: SyntheticSpec,
    words: dict[str, tuple[str, ...]],
    pair_id: str,
    codes: tuple[int, ...],
    weights: tuple[float, ...],
    rng: random.Random,
    labelled: bool,
    src_tokens: int,
) -> tuple[RawDocument, RawDocument]:
    # Uniform ratio keeps the pair's standardized length deviation bounded
    # by sqrt(3) while preserving the configured standard deviation.
    half_width = spec.length_ratio_std * _SQRT3
    ratio = rng.uniform(
        spec.target_length_inflation - half_width,
        spec.target_length_inflation + half_width,
    )
    tgt_tokens = max(_MIN_TOKENS, round(src_tokens * ratio))
    labels = frozenset(codes) if labelled else None
    src = RawDocument(
        id=f"{pair_id}-{spec.src_lang}",
        lang=spec.src_lang,
        text=" ".join(
            _sample_tokens(spec, spec.src_lang, words, codes, weights, src_tokens, rng)
        ),
        manual_descriptors=labels,
    )
    tgt = RawDocument(
        id=f"{pair_id}-{spec.tgt_lang}",
        lang=spec.tgt_lang,
        text=" ".join(
            _sample_tokens(spec, spec.tgt_lang, words, codes, weights, tgt_tokens, rng)
        ),
        manual_descriptors=labels,
    )
    return src, tgt


def generate_synthetic(spec: SyntheticSpec) -> SyntheticCorpus:
    """Generate thesaurus, resources and train/test parallel corpora.

    Fully deterministic for a fixed spec (including the seed).
    """
    rng = random.Random(spec.rng_seed)
    thesaurus = _make_thesaurus(spec)
    langs = (spec.src_lang, spec.tgt_lang)
    resources = {
        lang: LanguageResources(lang=lang, stopwords=frozenset(_stopwords(lang)))
        for lang in langs
    }
    # every word of each vocabulary, by lemma index; built per call so that
    # no table outlives the corpus
    words = {
        lang: tuple(_word(lang, i) for i in range(spec.vocab_size_per_lang)) for lang in langs
    }

    train_pairs = []
    for i in range(spec.n_train_docs):
        codes, weights = _draw_topics(spec, rng)
        src_tokens = max(
            _MIN_TOKENS, round(rng.gauss(spec.doc_length_mean, spec.doc_length_std))
        )
        train_pairs.append(
            _make_pair(
                spec, words, f"tr{i:04d}", codes, weights, rng, labelled=True, src_tokens=src_tokens
            )
        )

    jitter = spec.doc_length_std / spec.doc_length_mean
    test_pairs = []
    for i, (codes, length_class) in enumerate(_test_plan(spec, rng)):
        weights = _mix_weights(len(codes), rng)
        src_tokens = max(
            _MIN_TOKENS,
            round(
                spec.doc_length_mean
                * _CLASS_GROWTH ** length_class
                * (1.0 + rng.uniform(-jitter, jitter))
            ),
        )
        test_pairs.append(
            _make_pair(
                spec, words, f"te{i:04d}", codes, weights, rng, labelled=False, src_tokens=src_tokens
            )
        )

    return SyntheticCorpus(
        spec=spec,
        thesaurus=thesaurus,
        resources=resources,
        train=ParallelCorpus(
            pairs=tuple(train_pairs), src_lang=spec.src_lang, tgt_lang=spec.tgt_lang
        ),
        test=ParallelCorpus(
            pairs=tuple(test_pairs), src_lang=spec.src_lang, tgt_lang=spec.tgt_lang
        ),
    )


def write_corpus(corpus: SyntheticCorpus, out_dir: str) -> None:
    """Materialize a generated corpus as files loadable by the CLI."""
    from xlingua.thesaurus import save_thesaurus

    os.makedirs(out_dir, exist_ok=True)
    corpus.spec.to_json(os.path.join(out_dir, "spec.json"))
    save_thesaurus(corpus.thesaurus, os.path.join(out_dir, "thesaurus.txt"))

    for lang, res in corpus.resources.items():
        lang_dir = os.path.join(out_dir, "resources", lang)
        os.makedirs(lang_dir, exist_ok=True)
        with open(os.path.join(lang_dir, "stopwords.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(res.stopwords)) + "\n")

    docs_dir = os.path.join(out_dir, "docs")
    os.makedirs(docs_dir, exist_ok=True)

    def write_manifest(name: str, pairs) -> None:
        lines = []
        for src, tgt in pairs:
            for doc in (src, tgt):
                with open(os.path.join(docs_dir, f"{doc.id}.txt"), "w", encoding="utf-8") as fh:
                    fh.write(doc.text)
                codes = (
                    ",".join(str(c) for c in sorted(doc.manual_descriptors))
                    if doc.manual_descriptors
                    else ""
                )
                lines.append(f"{doc.id}\t{doc.lang}\tdocs/{doc.id}.txt\t{codes}")
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    write_manifest("train_manifest.tsv", corpus.train.pairs)
    write_manifest("test_manifest.tsv", corpus.test.pairs)

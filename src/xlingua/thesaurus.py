"""Multilingual thesaurus: the shared descriptor space.

Descriptors carry a numeric code (language-independent), one label per
configured language, and BT/NT/RT links.  The links are validated and
exposed read-only; no similarity computation uses them.

File format (UTF-8 text, a line starting with ``#`` is a comment, blank
lines separate records; a ``#`` anywhere else, as in ``C# PROGRAMMING``,
is part of the line)::

    LANGS en es
    D 1604 12 127
    L en TRANSPORT OF DANGEROUS GOODS
    L es TRANSPORTE DE MERCANCIAS PELIGROSAS
    BT 1338
    RT 2012
"""

from __future__ import annotations

from dataclasses import dataclass, field

from xlingua.errors import ParseError, ValidationError, open_text


@dataclass(frozen=True)
class Descriptor:
    code: int
    labels: dict[str, str]
    broader: frozenset[int] = frozenset()
    narrower: frozenset[int] = frozenset()
    related: frozenset[int] = frozenset()
    field_id: int = 0
    microthesaurus_id: int = 0


@dataclass(frozen=True)
class Thesaurus:
    descriptors: dict[int, Descriptor]
    languages: tuple[str, ...]

    def __post_init__(self) -> None:
        _validate(self.descriptors, self.languages)

    def label_of(self, code: int, lang: str) -> str:
        """Return the unique label of a descriptor in one language."""
        if code not in self.descriptors:
            raise ValidationError(f"unknown descriptor code {code}")
        if lang not in self.languages:
            raise ValidationError(f"unknown language {lang!r}")
        return self.descriptors[code].labels[lang]

    def __len__(self) -> int:
        return len(self.descriptors)


def _validate(descriptors: dict[int, Descriptor], languages: tuple[str, ...]) -> None:
    langs = set(languages)
    for code, d in descriptors.items():
        if d.code != code:
            raise ValidationError(f"descriptor {code}: key/code mismatch ({d.code})")
        if set(d.labels) != langs:
            missing = langs - set(d.labels)
            extra = set(d.labels) - langs
            raise ValidationError(
                f"descriptor {code}: label languages mismatch"
                f" (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        for rel_name, targets in (("BT", d.broader), ("NT", d.narrower), ("RT", d.related)):
            for t in targets:
                if t == code:
                    raise ValidationError(f"descriptor {code}: {rel_name} self-reference")
                if t not in descriptors:
                    raise ValidationError(f"descriptor {code}: {rel_name} {t} not defined")
    # BT/NT mutually inverse, RT symmetric
    for code, d in descriptors.items():
        for t in d.broader:
            if code not in descriptors[t].narrower:
                raise ValidationError(f"descriptor {code}: BT {t} lacks inverse NT")
        for t in d.narrower:
            if code not in descriptors[t].broader:
                raise ValidationError(f"descriptor {code}: NT {t} lacks inverse BT")
        for t in d.related:
            if code not in descriptors[t].related:
                raise ValidationError(f"descriptor {code}: RT {t} not symmetric")


@dataclass
class _Record:
    code: int
    field_id: int
    micro_id: int
    labels: dict[str, str] = field(default_factory=dict)
    broader: set[int] = field(default_factory=set)
    narrower: set[int] = field(default_factory=set)
    related: set[int] = field(default_factory=set)


def load_thesaurus(path: str) -> Thesaurus:
    """Load and eagerly validate a thesaurus file.

    BT/NT/RT links stated on one side are completed on the other, so a
    file only needs to declare each relation once.
    """
    languages: tuple[str, ...] | None = None
    records: dict[int, _Record] = {}
    current: _Record | None = None

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                current = None
                continue
            parts = line.split()
            tag = parts[0]
            try:
                if tag == "LANGS":
                    if languages is not None:
                        raise ParseError(f"{path}:{lineno}: duplicate LANGS header")
                    if len(parts) < 2:
                        raise ParseError(f"{path}:{lineno}: LANGS needs at least one language")
                    languages = tuple(parts[1:])
                elif tag == "D":
                    if languages is None:
                        raise ParseError(f"{path}:{lineno}: D record before LANGS header")
                    if len(parts) != 4:
                        raise ParseError(f"{path}:{lineno}: D needs code, field and microthesaurus")
                    code = int(parts[1])
                    if code <= 0:
                        raise ValidationError(f"{path}:{lineno}: code must be positive, got {code}")
                    if code in records:
                        raise ValidationError(f"{path}:{lineno}: duplicate descriptor code {code}")
                    current = _Record(code, int(parts[2]), int(parts[3]))
                    records[code] = current
                elif tag == "L":
                    if current is None:
                        raise ParseError(f"{path}:{lineno}: L outside a descriptor record")
                    lang = parts[1]
                    label = line.split(None, 2)[2]
                    if lang in current.labels:
                        raise ValidationError(
                            f"{path}:{lineno}: descriptor {current.code}: duplicate label for {lang!r}"
                        )
                    current.labels[lang] = label
                elif tag in ("BT", "NT", "RT"):
                    if current is None:
                        raise ParseError(f"{path}:{lineno}: {tag} outside a descriptor record")
                    if len(parts) != 2:
                        raise ParseError(f"{path}:{lineno}: {tag} needs exactly one code")
                    target = int(parts[1])
                    {"BT": current.broader, "NT": current.narrower, "RT": current.related}[
                        tag
                    ].add(target)
                else:
                    raise ParseError(f"{path}:{lineno}: unknown tag {tag!r}")
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}:{lineno}: malformed record: {line!r}") from exc

    if languages is None:
        raise ParseError(f"{path}: missing LANGS header")

    # complete inverse links before validation
    for rec in records.values():
        for t in rec.broader:
            if t not in records:
                raise ValidationError(f"descriptor {rec.code}: BT {t} not defined")
            records[t].narrower.add(rec.code)
        for t in rec.narrower:
            if t not in records:
                raise ValidationError(f"descriptor {rec.code}: NT {t} not defined")
            records[t].broader.add(rec.code)
        for t in rec.related:
            if t not in records:
                raise ValidationError(f"descriptor {rec.code}: RT {t} not defined")
            records[t].related.add(rec.code)

    descriptors = {
        code: Descriptor(
            code=code,
            labels=dict(rec.labels),
            broader=frozenset(rec.broader),
            narrower=frozenset(rec.narrower),
            related=frozenset(rec.related),
            field_id=rec.field_id,
            microthesaurus_id=rec.micro_id,
        )
        for code, rec in records.items()
    }
    return Thesaurus(descriptors=descriptors, languages=languages)


def save_thesaurus(t: Thesaurus, path: str) -> None:
    """Write a thesaurus in canonical form (codes ascending, links sorted)."""
    lines = ["LANGS " + " ".join(t.languages), ""]
    for code in sorted(t.descriptors):
        d = t.descriptors[code]
        lines.append(f"D {d.code} {d.field_id} {d.microthesaurus_id}")
        for lang in t.languages:
            lines.append(f"L {lang} {d.labels[lang]}")
        for tag, targets in (("BT", d.broader), ("NT", d.narrower), ("RT", d.related)):
            for target in sorted(targets):
                lines.append(f"{tag} {target}")
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))

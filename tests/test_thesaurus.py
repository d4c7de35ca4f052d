import pytest

from xlingua.errors import ParseError, ValidationError
from xlingua.thesaurus import Descriptor, Thesaurus, load_thesaurus, save_thesaurus


def make_thesaurus():
    return Thesaurus(
        descriptors={
            1: Descriptor(1, {"en": "ENERGY", "es": "ENERGIA"}, frozenset(), frozenset({2}), frozenset({3}), 1, 1),
            2: Descriptor(2, {"en": "SOLAR", "es": "SOLAR"}, frozenset({1}), frozenset(), frozenset(), 1, 1),
            3: Descriptor(3, {"en": "FUEL", "es": "COMBUSTIBLE"}, frozenset(), frozenset(), frozenset({1}), 2, 2),
        },
        languages=("en", "es"),
    )


def test_label_lookup():
    t = make_thesaurus()
    assert t.label_of(1, "es") == "ENERGIA"
    with pytest.raises(ValidationError):
        t.label_of(99, "en")
    with pytest.raises(ValidationError):
        t.label_of(1, "fr")


def test_inverse_link_validation():
    with pytest.raises(ValidationError, match="2"):
        Thesaurus(
            descriptors={
                1: Descriptor(1, {"en": "A"}, frozenset(), frozenset({2}), frozenset(), 1, 1),
                2: Descriptor(2, {"en": "B"}, frozenset(), frozenset(), frozenset(), 1, 1),
            },
            languages=("en",),
        )


def test_self_link_rejected():
    with pytest.raises(ValidationError):
        Thesaurus(
            descriptors={
                1: Descriptor(1, {"en": "A"}, frozenset({1}), frozenset(), frozenset(), 1, 1)
            },
            languages=("en",),
        )


def test_save_load_round_trip_is_byte_identical(tmp_path):
    t = make_thesaurus()
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_thesaurus(t, str(p1))
    loaded = load_thesaurus(str(p1))
    save_thesaurus(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.descriptors == t.descriptors


def test_loader_completes_inverse_links(tmp_path):
    # only the BT side is written; the loader supplies the NT inverse
    p = tmp_path / "t.txt"
    p.write_text(
        "LANGS en\n\nD 1 1 1\nL en A\n\nD 2 1 1\nL en B\nBT 1\n",
        encoding="utf-8",
    )
    t = load_thesaurus(str(p))
    assert 2 in t.descriptors[1].narrower


def test_loader_dangling_link_names_code(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("LANGS en\n\nD 42 1 1\nL en A\nBT 99\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_thesaurus(str(p))
    assert "42" in str(exc.value) and "99" in str(exc.value)


def test_loader_rejects_garbage(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("LANGS en\n\nwhat is this\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_thesaurus(str(p))


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(
        "# thesaurus file\nLANGS en\n\n# descriptor one\nD 1 1 1\nL en A\n\n",
        encoding="utf-8",
    )
    t = load_thesaurus(str(p))
    assert t.label_of(1, "en") == "A"


def test_hash_inside_a_label_round_trips(tmp_path):
    t = Thesaurus(
        descriptors={1: Descriptor(1, {"en": "C# PROGRAMMING", "es": "PROGRAMACION #1"})},
        languages=("en", "es"),
    )
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_thesaurus(t, str(p1))
    loaded = load_thesaurus(str(p1))
    assert loaded.label_of(1, "en") == "C# PROGRAMMING"
    save_thesaurus(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.descriptors == t.descriptors


def test_comment_line_inside_a_record_is_skipped(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("LANGS en\n\nD 1 1 1\n  # the English label\nL en A\n", encoding="utf-8")
    assert load_thesaurus(str(p)).label_of(1, "en") == "A"


def test_loader_messages_carry_file_and_line(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("LANGS en\n\nD 1 1 1\nL en A\nXX 2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"{p}:5: unknown tag 'XX'"):
        load_thesaurus(str(p))

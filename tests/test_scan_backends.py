"""The compiled and pure-Python scanners must be observationally identical."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcaudit.errors import MalformedFile
from ifcaudit.spf import write_spf
from ifcaudit.spf.backend import available_backends

BACKENDS = available_backends()


def both_available():
    return len(BACKENDS) >= 2


def run_scan(scan, data: bytes):
    start = data.find(b"DATA;") + 5
    try:
        records, refs, diags, end = scan(data, start)
        return ("ok", records, sorted(refs), diags, end)
    except MalformedFile as exc:
        return ("malformed",)


@pytest.mark.skipif(not both_available(), reason="compiled scanner not built")
def test_backends_agree_on_suite(suite_2x3):
    graph, _ = suite_2x3
    data = write_spf(graph)
    results = [run_scan(scan, data) for scan in BACKENDS.values()]
    assert results[0] == results[1]
    assert results[0][0] == "ok"


@pytest.mark.skipif(not both_available(), reason="compiled scanner not built")
@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="#=();'\"/*$,.AB_019 \t\n", max_size=200))
def test_backends_agree_on_adversarial_sections(body):
    data = b"DATA;" + body.encode("latin-1") + b"\nENDSEC;rest"
    results = [run_scan(scan, data) for scan in BACKENDS.values()]
    assert results[0] == results[1]


@pytest.mark.skipif(not both_available(), reason="compiled scanner not built")
def test_backends_agree_on_tricky_records():
    cases = [
        b"DATA; #1=A('a;b'); ENDSEC;",
        b"DATA; #1=A('it''s'); ENDSEC;",
        b"DATA; #2=B(/* ; */ 1., #3); ENDSEC;",
        b"DATA; #3=C((1,(2,(3)))); ENDSEC;",
        b"DATA; #4=D(\"0FF\"); ENDSEC;",
        b"DATA; #5=e_lower(#6,#6); ENDSEC;",
        b"DATA; #7=(A(1)B(2)); #8=F($); ENDSEC;",
        b"DATA;#9=G()  ;  ENDSEC  ;",
        b"DATA; #10=H('unterminated); ENDSEC;",
        b"DATA; #11=I(; ENDSEC;",
        b"DATA; junk #12=J(); ENDSEC;",
        b"DATA; #13=K((),$,*void); ENDSEC;",
    ]
    for data in cases:
        results = [run_scan(scan, data) for scan in BACKENDS.values()]
        assert results[0] == results[1], data


def test_active_backend_is_compiled_when_built():
    from ifcaudit.spf.backend import active_backend

    name, scan = active_backend()
    assert (name == "compiled") == ("compiled" in BACKENDS)
    assert scan is BACKENDS[name]


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("unit", [b"/*/", b"''"])
def test_unterminated_record_fails_fast(name, unit):
    data = b"DATA;#1=A(" + unit * 40
    start = time.perf_counter()
    with pytest.raises(MalformedFile):
        BACKENDS[name](data, 5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_unterminated_comment_in_record_is_malformed(name):
    with pytest.raises(MalformedFile):
        BACKENDS[name](b"DATA; #1=A(/*); ENDSEC;", 5)

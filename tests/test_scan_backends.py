"""The compiled and pure-Python scanners must be observationally identical."""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ifcaudit.spf
from ifcaudit.errors import MalformedFile
from ifcaudit.spf import write_spf
from ifcaudit.spf.backend import available_backends

BACKENDS = available_backends()
SPF_DIR = Path(ifcaudit.spf.__file__).parent


def build_compiled(out_dir: Path):
    """Compile ``_scan.c`` into ``out_dir`` and load it without installing
    it, so the package keeps the backend it selected. Any compiler warning
    fails the build."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    compiler = shutil.which(cc) or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler to build _scan.c")
    target = out_dir / ("_scan" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [compiler, "-O1", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-I" + sysconfig.get_paths()["include"], str(SPF_DIR / "_scan.c"), "-o", str(target)],
        check=True, capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("ifcaudit.spf._scan", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name)  # the module registers itself on import
    return module.scan_records


@pytest.fixture(scope="module")
def scanners(tmp_path_factory):
    """The pure and the compiled scanner by backend name, the latter built
    here when the package was installed without it."""
    found = dict(BACKENDS)
    if "compiled" not in found:
        found["compiled"] = build_compiled(tmp_path_factory.mktemp("scan"))
    return found


def column_type(column) -> str:
    """``list``, or ``array`` and its type code."""
    return type(column).__name__ + getattr(column, "typecode", "")


def run_scan(scan, data: bytes):
    """A scan's results (the table's rows and type names, the references in
    order, the diagnostics, the end offset and the type of each column), or
    the type, reason and offset of what it raised."""
    start = data.find(b"DATA;") + 5
    try:
        table, refs, diags, end = scan(data, start)
    except MalformedFile as exc:
        return ("MalformedFile", exc.reason, exc.offset)
    except ValueError as exc:  # int() refuses digit strings past its limit
        return ("ValueError", str(exc))
    columns = (table.ids, table.codes, table.starts, table.ends, refs)
    assert len({len(table.ids), len(table.codes), len(table.starts), len(table.ends)}) == 1
    return ("ok", list(table), table.names, list(refs), diags, end, list(map(column_type, columns)))


def assert_agree(scanners, data: bytes):
    pure, compiled = (run_scan(scanners[name], data) for name in ("python", "compiled"))
    assert pure == compiled, data[:200]
    return pure


def test_backends_agree_on_suite(scanners, suite_2x3):
    graph, _ = suite_2x3
    assert assert_agree(scanners, write_spf(graph))[0] == "ok"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="#=();'\"/*$,.AB_019 \t\n", max_size=200))
def test_backends_agree_on_adversarial_sections(scanners, body):
    assert_agree(scanners, b"DATA;" + body.encode("latin-1") + b"\nENDSEC;rest")


HEADS = [b"#%d=A(", b"#%d = b_2 (", b"#%d=("]
PARAMETER_TOKENS = [
    b"(", b")", b"'a;b'", b"''", b"')'", b"/* #9 */", b"\"'#3\"", b"#12",
    b"'", b'"', b"/", b";",
]
TAILS = [b");", b") ;", b"));", b")"]

token_records = st.builds(
    lambda head, n, params, tail: head % n + b"".join(params) + tail,
    st.sampled_from(HEADS),
    st.integers(1, 20),
    st.lists(st.sampled_from(PARAMETER_TOKENS), max_size=6),
    st.sampled_from(TAILS),
)


@settings(max_examples=600, deadline=None)
@given(st.lists(token_records, min_size=1, max_size=4))
def test_backends_agree_on_token_sections(scanners, section):
    assert_agree(scanners, b"DATA;" + b"\n".join(section) + b"\nENDSEC;")


def test_backends_agree_on_tricky_records(scanners):
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
        b"DATA; #14=L(" + b"(" * 50 + b"#15" + b")" * 50 + b"); ENDSEC;",
        b"DATA;#1=A(xx));ENDSEC;",
        b"DATA;#1=A((x);ENDSEC;",
        b"DATA;#1=A(x)(y);ENDSEC;",
        b"DATA;#1=A(/* #9 */);ENDSEC;",
        b"DATA;#1=A(\"'#3\");ENDSEC;",
    ]
    # the compiled scanner reads up to 18 digits natively and hands longer
    # ones to int(), which refuses more than 4300
    for digits in (b"9" * 18, b"1" + b"0" * 18, b"9" * 19, b"9" * 20, b"7" * 5000):
        cases += [
            b"DATA;#" + digits + b"=A(#" + digits + b",#2);ENDSEC;",
            b"DATA;#1=A(#" + digits + b");#" + digits + b"=(B());ENDSEC;",
        ]
    cases += [
        b"DATA;#" + b"7" * 5000 + b"=A(;ENDSEC;",
        b"DATA;#1=A(#" + b"7" * 5000 + b",;ENDSEC;",
        b"DATA;#1=A(#" + b"7" * 5000 + b",#" + b"8" * 4400 + b");ENDSEC;",
    ]
    for data in cases:
        assert_agree(scanners, data)


def test_active_backend_is_compiled_when_built():
    from ifcaudit.spf.backend import active_backend

    name, scan = active_backend()
    assert (name == "compiled") == ("compiled" in BACKENDS)
    assert scan is BACKENDS[name]


@pytest.mark.parametrize("name", ["compiled", "python"])
@pytest.mark.parametrize(
    "unit", [b"/*/", b"''", b"(", b"()", b"(a", b"0123456789", b"/", b"/x", b"'x''"]
)
def test_unterminated_record_fails_fast(scanners, name, unit):
    data = b"DATA;#1=A(" + unit * (200_000 // len(unit))
    start = time.perf_counter()
    with pytest.raises(MalformedFile):
        scanners[name](data, 5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", ["compiled", "python"])
def test_unterminated_comment_in_record_is_malformed(scanners, name):
    with pytest.raises(MalformedFile):
        scanners[name](b"DATA; #1=A(/*); ENDSEC;", 5)


DEEP5 = b"(" * 5 + b"#2" + b")" * 5  # one level past the pure scanner's run pattern
DEEP50 = b"(" * 50 + b"#3" + b")" * 50


@pytest.mark.parametrize(
    "section, expected, refs",
    [
        (
            b"#1=IFCWALL('a',#2);\r\n#2=IFCDEEP(" + DEEP5 + b");/* ; ) */\r\n#3=ifcwall(#1);\r\n"
            b"#4=(IFCA()IFCB(#9));\r\n/* c */#5 = IFCDEEP (" + DEEP50 + b") ;\r\n#6=IFCWALL($);"
            b"#7=IFCDEEP(" + DEEP5 + b");ENDSEC;",
            [(1, "IFCWALL", b"'a',#2"), (2, "IFCDEEP", DEEP5), (3, "IFCWALL", b"#1"),
             (5, "IFCDEEP", DEEP50), (6, "IFCWALL", b"$"), (7, "IFCDEEP", DEEP5)],
            [2, 2, 1, 3, 2],
        ),
        (
            b"\r\n#2=IFCDEEP(" + DEEP50 + b");#4=(IFCA());#1=IFCWALL(#2,'x;)');\r\nENDSEC\r\n;",
            [(2, "IFCDEEP", DEEP50), (1, "IFCWALL", b"#2,'x;)'")],
            [3, 2],
        ),
        (b"#1=IFCWALL(#3);#4=(IFCA(#1));ENDSEC;", [(1, "IFCWALL", b"#3")], [3]),
    ],
    ids=["mixed", "deep-first", "complex-last"],
)
def test_runs_resume_after_slow_records(scanners, section, expected, refs):
    """Records nested past the run pattern's depth and complex instances
    end a run of ordinary records; the next record starts a new one."""
    data = b"DATA;" + section
    status, records, _, *rest, types = assert_agree(scanners, data)
    assert status == "ok"
    assert [(i, name, data[a:b]) for i, name, a, b in records] == expected
    complex_4 = ("complex-instance", "unsupported complex entity instance #4 skipped")
    assert rest == [refs, [complex_4], len(data)]
    assert types == ["list", "arrayI", "arrayq", "arrayq", "arrayq"]


@pytest.mark.parametrize("name", ["compiled", "python"])
def test_records_of_one_type_share_one_name(scanners, name):
    data = b"DATA;#1=IFCWALL();#2=IfcWall(#1);#3=IFCWALL(" + DEEP50 + b");#4=IFCDOOR();ENDSEC;"
    table, *_ = scanners[name](data, 5)
    walls = [type_name for _, type_name, _, _ in table][:3]
    assert walls == ["IFCWALL"] * 3
    assert walls[0] is walls[1] is walls[2]
    assert (list(table.codes), table.names) == ([0, 0, 0, 1], ["IFCWALL", "IFCDOOR"])

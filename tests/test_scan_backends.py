"""The compiled and pure-Python scanners must be observationally identical."""

import importlib.util
import re
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
    """Compile the shipped ``_scan.c`` into ``out_dir`` and load it without
    installing it, so the package keeps the backend it selected."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    compiler = shutil.which(cc) or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler to build _scan.c")
    target = out_dir / ("_scan" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(
        [compiler, "-O1", "-shared", "-fPIC", "-I" + sysconfig.get_paths()["include"],
         str(SPF_DIR / "_scan.c"), "-o", str(target)],
        check=True, capture_output=True,
    )
    spec = importlib.util.spec_from_file_location("ifcaudit.spf._scan", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name)  # the module registers itself on import
    return module.scan_records


@pytest.fixture(scope="module")
def scanners(tmp_path_factory):
    """The pure and the compiled scanner, the latter built here when the
    package was installed without it."""
    found = dict(BACKENDS)
    if "compiled" not in found:
        found["compiled"] = build_compiled(tmp_path_factory.mktemp("scan"))
    return found["python"], found["compiled"]


def run_scan(scan, data: bytes):
    start = data.find(b"DATA;") + 5
    try:
        records, refs, diags, end = scan(data, start)
        return ("ok", records, sorted(refs), diags, end)
    except MalformedFile as exc:
        return ("malformed",)


def assert_agree(scanners, data: bytes):
    pure, compiled = (run_scan(scan, data) for scan in scanners)
    assert pure == compiled, data
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
    for data in cases:
        assert_agree(scanners, data)


def test_shipped_c_matches_pyx():
    """``_scan.c`` quotes the ``_scan.pyx`` line each block was generated
    from; an edited ``.pyx`` needs a regenerated ``.c``."""
    pyx = (SPF_DIR / "_scan.pyx").read_text(encoding="utf-8").splitlines()
    c_source = (SPF_DIR / "_scan.c").read_text(encoding="utf-8")
    marker = "             # <<<<<<<<<<<<<<"
    blocks = re.findall(
        r'^[ \t]*/\* "ifcaudit/spf/_scan\.pyx":(\d+)\n(.*?)^\*/$', c_source, re.M | re.S
    )
    assert blocks
    for lineno, body in blocks:
        (quoted,) = [line for line in body.splitlines() if line.endswith(marker)]
        quoted = quoted.removeprefix(" * ").removesuffix(marker)
        quoted = quoted.replace("[inserted by cython to avoid comment start]", "")
        assert quoted == pyx[int(lineno) - 1], f"_scan.pyx:{lineno}"


def test_active_backend_is_compiled_when_built():
    from ifcaudit.spf.backend import active_backend

    name, scan = active_backend()
    assert (name == "compiled") == ("compiled" in BACKENDS)
    assert scan is BACKENDS[name]


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("unit", [b"/*/", b"''", b"(", b"()", b"(a", b"0123456789"])
def test_unterminated_record_fails_fast(name, unit):
    data = b"DATA;#1=A(" + unit * (200_000 // len(unit))
    start = time.perf_counter()
    with pytest.raises(MalformedFile):
        BACKENDS[name](data, 5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_unterminated_comment_in_record_is_malformed(name):
    with pytest.raises(MalformedFile):
        BACKENDS[name](b"DATA; #1=A(/*); ENDSEC;", 5)

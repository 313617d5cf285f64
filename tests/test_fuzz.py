"""Every read command, and ``check``, stays total on mutated files: it exits
0 or 2, or 1 for a finding that an ``--expect-*`` flag asked about, raises
nothing, and writes JSON without NaN or Infinity."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from tests_helpers import face_model, georef_fixture_l50, holed_face_items

from ifcaudit.cli import main
from ifcaudit.spf import write_spf

HOSTILE = [b"9" * 5000, b"1.E999", b"$", b"*", b"#0", b"#999999", b"'", b"/*", b"(" * 100]
NON_ASCII = [b"\xe9", b"\xff\xfe", b"\x00", "é中".encode("utf-8")]
COMMANDS = [
    ["census", "{m}"],
    ["georef", "{m}"],
    ["parse", "{m}"],
    ["diff", "{b}", "{m}"],
    ["report", "roundtrip", "{m}", "{b}"],
    ["diff", "{b}", "{m}", "--expect-unchanged"],
    ["report", "roundtrip", "{m}", "{b}", "--expect-unchanged"],
    ["check", "{m}", "--segments", "8"],
]
#: for the generated suites, whose manifests give each item's verdict
SUITE_COMMANDS = [["check", "{m}", "--manifest", "{s}", "--segments", "8", "--expect-match"]]


@pytest.fixture(scope="module")
def bases(tmp_path_factory, suite_2x3, suite_ifc4):
    """The unmutated files, written once, with the directory for mutants and
    the manifests of the suites among them."""
    root = tmp_path_factory.mktemp("fuzz")
    paths, manifests = [], {}
    for name, graph, manifest in (
        ("2x3", *suite_2x3), ("ifc4", *suite_ifc4), ("l50", georef_fixture_l50(), None),
        ("faces", face_model(holed_face_items()), None),
    ):
        path = root / f"{name}.ifc"
        path.write_bytes(write_spf(graph))
        if manifest is not None:
            manifests[path] = root / f"{name}.json"
            manifests[path].write_text(json.dumps(manifest.to_dict()), encoding="utf-8")
        paths.append(path)
    return root, paths, manifests


# each mutation: (kind, line index, byte index, payload); indexes wrap around.
# A retarget takes its line's reference and the record it then names by the
# byte index, so the reference most often names a record of another type
mutations = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "delete", "duplicate", "renumber", "insert", "retarget"]),
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 20),
        st.sampled_from(HOSTILE + NON_ASCII),
    ),
    min_size=1,
    max_size=4,
)


def mutate(data: bytes, steps) -> bytes:
    for kind, line, at, payload in steps:
        if kind == "truncate":
            data = data[: at % (len(data) + 1)]
            continue
        lines = data.split(b"\n")
        i = line % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "renumber":
            lines[i] = lines[i].replace(b"#", b"#1", 1)
        elif kind == "retarget":
            ids = re.findall(rb"^#([0-9]+)=", data, re.M)
            head, eq, tail = lines[i].partition(b"=")
            refs = list(re.finditer(rb"#[0-9]+", tail))
            if eq and refs and ids:
                ref = refs[at % len(refs)]
                tail = tail[: ref.start()] + b"#" + ids[at % len(ids)] + tail[ref.end() :]
                lines[i] = head + eq + tail
        else:
            j = at % (len(lines[i]) + 1)
            lines[i] = lines[i][:j] + payload + lines[i][j:]
        data = b"\n".join(lines)
    return data


def refuse_constant(name):
    raise ValueError(f"{name} in JSON output")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, 3), steps=mutations)
@example(base=0, steps=[("delete", 12, 0, b"$")])  # a census change: exit 1 when expected
def test_read_commands_are_total_on_mutants(bases, base, steps):
    root, paths, manifests = bases
    mutant = root / "mutant.ifc"
    mutant.write_bytes(mutate(paths[base].read_bytes(), steps))
    out = root / "out.json"
    manifest = manifests.get(paths[base])
    for command in COMMANDS + (SUITE_COMMANDS if manifest else []):
        argv = [arg.format(m=mutant, b=paths[base], s=manifest) for arg in command]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
        expecting = any(arg.startswith("--expect-") for arg in argv)
        assert code in ((0, 1, 2) if expecting else (0, 2)), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: "), err.getvalue()
            assert not out.exists()
        else:
            json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)

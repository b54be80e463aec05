"""``scripts/check_test_hygiene.py`` holds on this tree, and rejects what
it says it rejects (the retired host-wall bars and the retired einsum
capture, spelled as they were, and a definition only tests use); the
docs' doctests run here too, so a contract page cannot break while
tier-1 stays green."""

import doctest
import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_test_hygiene.py"


def load_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def hygiene():
    return load_script(SCRIPT)


@pytest.fixture(scope="module")
def docs_links():
    return load_script(SCRIPT.with_name("check_docs_links.py"))


def problems(hygiene, source):
    path = hygiene.REPO_ROOT / "tests" / "sample.py"
    return hygiene.check_wall_ratio_asserts(path, textwrap.dedent(source))


def test_the_suites_are_clean(hygiene, capsys):
    assert hygiene.main() == 0, capsys.readouterr().err


REJECTED = {
    "study_speedup_field": """
        def test(result):
            serving = result.regime("serving")
            assert serving.speedup >= 5.0
        """,
    "speedup_property_through_a_local": """
        def test(result):
            speedup = result.speedup_vs_batch1
            assert speedup >= 3.0, f"{speedup:.2f}x"
        """,
    "ratio_of_two_timed_legs": """
        import time

        def _time_leg(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start

        def measure():
            clean_s = chaos_s = float("inf")
            for _ in range(3):
                clean_s = min(clean_s, _time_leg(clean))
                chaos_s = min(chaos_s, _time_leg(chaotic))
            return clean_s, chaos_s

        def test():
            clean_s, chaos_s = measure()
            ratio = chaos_s / clean_s
            assert ratio <= 1.03
        """,
    "elapsed_below_a_budget": """
        from time import perf_counter

        def test():
            start = perf_counter()
            work()
            assert perf_counter() - start < 0.5
        """,
    "timing_stored_on_self": """
        import time

        class Result:
            def measure(self):
                start = time.perf_counter()
                work()
                self.run_ms = (time.perf_counter() - start) * 1000.0

        def test(result):
            assert result.run_ms < 2 * result.budget
        """,
}

ACCEPTED = {
    "simulated_chip_ratio": """
        def test(stream):
            assert stream.pipeline_speedup >= 1.5
        """,
    "counts_beside_a_printed_ratio": """
        import time

        def test(cache, compiled, x):
            start = time.perf_counter()
            compiled.run(x)
            elapsed = time.perf_counter() - start
            print(f"{elapsed * 1e3:.1f} ms")
            assert cache.stats.programmed == compiled.n_weight_layers
        """,
    "untimed_half_of_a_timed_helper": """
        import time

        def timed(fn):
            start = time.perf_counter()
            value = fn()
            return time.perf_counter() - start, value

        def test():
            elapsed, batches = timed(run)
            assert len(batches) < 64
        """,
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_host_wall_assert_is_rejected(hygiene, name):
    found = problems(hygiene, REJECTED[name])
    assert len(found) == 1 and "tests/sample.py" in found[0]


@pytest.mark.parametrize("name", sorted(ACCEPTED))
def test_deterministic_assert_is_accepted(hygiene, name):
    assert problems(hygiene, ACCEPTED[name]) == []


PRIVATE_NUMPY = {
    "from_private_core": """
        from numpy._core.einsumfunc import bmm_einsum as _bmm_einsum
        """,
    "import_private_core": """
        import numpy._core.einsumfunc
        """,
    "legacy_core_internals": """
        from numpy.core import _multiarray_umath
        """,
    "attribute_through_np": """
        import numpy as np

        bmm = np._core.einsumfunc.bmm_einsum
        """,
    "einsum_call_keyword": """
        import numpy as np

        def steps(a, b):
            return np.einsum_path("ij,jk->ik", a, b, optimize=True, einsum_call=True)
        """,
}

PUBLIC_NUMPY = """
    import numpy as np
    from numpy import __version__
    from numpy.lib.stride_tricks import sliding_window_view

    def contract(a, b):
        path, _ = np.einsum_path("ij,jk->ik", a, b, optimize=True)
        return np.einsum("ij,jk->ik", a, b, optimize=path), np.__version__
    """


def private_numpy_problems(hygiene, source):
    path = hygiene.REPO_ROOT / "src" / "sample.py"
    return hygiene.check_private_numpy(path, textwrap.dedent(source))


@pytest.mark.parametrize("name", sorted(PRIVATE_NUMPY))
def test_private_numpy_interface_is_rejected(hygiene, name):
    found = private_numpy_problems(hygiene, PRIVATE_NUMPY[name])
    assert len(found) == 1 and "src/sample.py" in found[0]


def test_public_numpy_is_accepted(hygiene):
    assert private_numpy_problems(hygiene, PUBLIC_NUMPY) == []


NUMPY_FLOOR = {
    "unguarded": """
        import numpy as np

        def ones(codes):
            return np.bitwise_count(codes).sum(axis=-1)
        """,
    "guarded": """
        import numpy as np

        _TABLE = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
        ones = np.bitwise_count if hasattr(np, "bitwise_count") else _TABLE.take
        """,
    "guards_another_name": """
        import numpy as np

        if hasattr(np, "bitwise_count"):
            transpose = np.matrix_transpose
        """,
}


@pytest.mark.parametrize(
    "name,rejected", [("unguarded", 1), ("guarded", 0), ("guards_another_name", 1)]
)
def test_numpy_2_name_needs_a_hasattr_guard(hygiene, name, rejected):
    path = hygiene.REPO_ROOT / "src" / "sample.py"
    found = hygiene.check_numpy_floor(path, textwrap.dedent(NUMPY_FLOOR[name]))
    assert len(found) == rejected and all("src/sample.py" in line for line in found)


PLANTED = """
    def planted(x):
        return x


    class Kept:
        @property
        def planted_property(self):
            return planted(1)

        def __repr__(self):
            return "Kept()"
    """


def plant(root, uses):
    """A tree under ``root`` whose ``src/`` defines ``planted`` (used by
    ``Kept.planted_property`` alone), ``Kept`` (used by
    ``src/pkg/use.py``) and ``Kept.planted_property`` (used by nothing),
    plus ``uses``: relative path -> text."""
    files = {"src/pkg/mod.py": textwrap.dedent(PLANTED), "src/pkg/use.py": "Kept\n"}
    for relative, text in {**files, **uses}.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


@pytest.mark.parametrize(
    "uses,reported",
    [
        ({}, ["planted", "Kept.planted_property"]),
        (
            {"tests/test_mod.py": "Kept().planted_property\n"},
            ["planted", "Kept.planted_property"],
        ),
        ({"bench/run.py": "value = Kept().planted_property\n"}, []),
        ({"docs/mod.md": "`Kept.planted_property` is one.\n"}, []),
    ],
    ids=["unused", "tests-only", "bench", "docs"],
)
def test_definition_only_tests_use_is_reported(hygiene, tmp_path, uses, reported):
    """``planted`` is used by ``Kept.planted_property``; the property is
    used by nothing but ``uses``, and a use under tests/ does not count.
    A dead property takes ``planted`` with it."""
    plant(tmp_path, uses)
    found = hygiene.unreferenced_definitions(tmp_path, allowed={})
    assert [line.split(": ")[1].split()[0] for line in found] == reported
    assert all(line.startswith("src/pkg/mod.py:") for line in found)


CHAIN = {"src/pkg/chain.py": "def b():\n    return 1\n\n\ndef a():\n    return b()\n"}


def test_callee_of_a_dead_caller_is_reported(hygiene, tmp_path):
    """``a`` is used nowhere and is ``b``'s only caller, so both are dead."""
    plant(tmp_path, CHAIN)
    found = [
        line.split(": ")[1].split()[0]
        for line in hygiene.unreferenced_definitions(tmp_path, allowed={})
        if line.startswith("src/pkg/chain.py:")
    ]
    assert found == ["b", "a"]


REEXPORT = {
    "src/pkg/extra.py": "def exported():\n    return 1\n",
    "src/pkg/__init__.py": (
        "from pkg.extra import (\n    exported,\n)\n\n__all__ = [\n    \"exported\",\n]\n"
    ),
    "docs/extra.md": ">>> from pkg.extra import exported\n",
    "tests/test_extra.py": "from pkg import exported\nassert exported() == 1\n",
}


@pytest.mark.parametrize(
    "uses,reported",
    [({}, True), ({"examples/run.py": "from pkg import exported\nexported()\n"}, False)],
    ids=["re-export-only", "called"],
)
def test_definition_only_reexported_is_reported(hygiene, tmp_path, uses, reported):
    """An import line or an ``__all__`` entry binds a name, it does not
    use it: a definition that only tests call through a re-export is
    reported like any other."""
    plant(tmp_path, {**REEXPORT, **uses})
    found = [
        line
        for line in hygiene.unreferenced_definitions(tmp_path, allowed={})
        if not line.startswith("src/pkg/mod.py:")
    ]
    assert [line.split(": ")[1].split()[0] for line in found] == (
        ["exported"] if reported else []
    )


def test_allowlist_keeps_a_definition_and_reports_a_stale_entry(hygiene, tmp_path):
    plant(tmp_path, {})
    allowed = {"pkg.mod.Kept.planted_property": "a test", "pkg.mod.gone": "a test"}
    (stale,) = hygiene.unreferenced_definitions(tmp_path, allowed=allowed)
    assert "pkg.mod.gone" in stale and "drop the entry" in stale


def test_the_docs_references_resolve(docs_links, capsys):
    assert docs_links.main() == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "bound in the class body: `ProgrammedConv.execute`",
        "assigned as self.member: `InferenceServer.metrics`",
        "found on a base class: `ChaosStreamResult.pipeline_speedup`",
    ],
)
def test_class_member_reference_resolves(docs_links, line):
    (ref,) = docs_links.CLASS_REF.findall(line)
    assert docs_links.check_class_ref(*ref) == ""


def test_dangling_class_member_reference_is_reported(docs_links):
    (ref,) = docs_links.CLASS_REF.findall("a deleted method: `ProgrammedConv.execute_patches`")
    assert "ProgrammedConv.execute_patches" in docs_links.check_class_ref(*ref)


@pytest.mark.parametrize(
    "line",
    [
        "a qualified class: :class:`~repro.runtime.engine.GroupedConv`",
        "a method: :meth:`ProgrammedConv.execute`",
        "a name bound under src/repro: :func:`fold_batchnorm`",
        "a numpy target: :class:`numpy.ndarray`",
    ],
)
def test_cross_reference_resolves(docs_links, line):
    (target,) = docs_links.XREF.findall(line)
    assert docs_links.check_xref(target) == ""


def test_dangling_cross_reference_is_reported(docs_links, tmp_path, monkeypatch):
    (target,) = docs_links.XREF.findall("a deleted function: :func:`walk_placement`")
    assert "walk_placement" in docs_links.check_xref(target)
    source = tmp_path / "sample.py"
    source.write_text('"""Places layers.\n\nSee :func:`repro.runtime.walk_placement`."""\n')
    monkeypatch.setattr(docs_links, "REPO_ROOT", tmp_path)
    (problem,) = docs_links.check_xrefs(source)
    assert problem.startswith("sample.py:3:") and "walk_placement" in problem


@pytest.mark.parametrize("page", ["numerics.md", "snapshots.md"])
def test_contract_page_doctests(page):
    results = doctest.testfile(str(SCRIPT.parents[1] / "docs" / page), module_relative=False)
    assert results.attempted and not results.failed

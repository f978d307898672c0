"""The documentation must match the repository it describes."""

import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDoc:
    def test_exists_and_confirms_paper(self):
        text = read("DESIGN.md")
        assert "MiddleWhere" in text
        assert "No title collision" in text

    def test_every_bench_target_exists(self):
        text = read("DESIGN.md")
        targets = set(re.findall(r"`(benchmarks/[\w/]+\.py)", text))
        assert targets
        for target in targets:
            assert (ROOT / target).exists(), target

    def test_module_inventory_paths_exist(self):
        text = read("DESIGN.md")
        for package in ("geometry", "model", "spatialdb", "core",
                        "reasoning", "orb", "sensors", "service", "sim",
                        "apps"):
            assert f"{package}/" in text
            assert (ROOT / "src" / "repro" / package).is_dir()


class TestExperimentsDoc:
    def test_covers_every_evaluation_artifact(self):
        text = read("EXPERIMENTS.md")
        for artifact in ("Figure 9", "Table 1", "Table 2",
                         "Equation 4", "Equation 6", "Equation 7"):
            assert artifact in text, artifact

    def test_referenced_result_files_are_generated_by_benches(self):
        text = read("EXPERIMENTS.md")
        mentioned = set(re.findall(r"results/([\w.]+)\.txt", text))
        assert mentioned
        bench_source = "".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("*.py"))
        for name in mentioned:
            # Tolerate the wildcard shorthand "ablation_a9_*".
            stem = name.rstrip("*_")
            assert stem in bench_source, name


class TestReadme:
    def test_quickstart_code_runs(self):
        text = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        assert blocks, "README needs a python quickstart"
        # Execute the first block; it must run as documented.
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 — our own docs

    def test_example_commands_reference_real_files(self):
        text = read("README.md")
        for example in re.findall(r"python (examples/[\w.]+\.py)", text):
            assert (ROOT / example).exists(), example

    def test_cli_commands_exist(self):
        from repro.cli import _COMMANDS
        text = read("README.md")
        for command in re.findall(r"python -m repro (\w+)", text):
            assert command in _COMMANDS, command

    def test_math_doc_linked_and_present(self):
        assert "docs/MATH.md" in read("README.md")
        assert (ROOT / "docs" / "MATH.md").exists()


class TestTestReferences:
    """Every ``tests/<file>.py::<Class>[::<test>]`` a document names
    must resolve, so renaming a test that pins a documented contract
    also has to update the document that cites it."""

    DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
    REFERENCE = re.compile(r"(tests/\w+\.py)((?:::\w+)+)")

    def references(self):
        paths = [ROOT / name for name in self.DOCS]
        paths += sorted((ROOT / "docs").glob("*.md"))
        for path in paths:
            for match in self.REFERENCE.finditer(
                    path.read_text(encoding="utf-8")):
                yield path.name, match.group(1), match.group(2)

    def test_every_test_reference_resolves(self):
        found = list(self.references())
        assert found
        for doc, test_file, names in found:
            source = read(test_file)
            # A class opens at column 0; its tests are indented.
            indent = ""
            for name in names.strip(":").split("::"):
                pattern = rf"^{indent}(?:class|def) {name}\b"
                assert re.search(pattern, source, re.MULTILINE), \
                    f"{doc} cites {test_file}{names}: no {name}"
                indent = r"\s+"


class TestDocstringSignatureParity:
    """A class's ``Args:`` section names exactly its constructor's
    parameters, so adding or deleting an option also updates the
    docstring that documents it."""

    @staticmethod
    def documented(cls):
        lines = inspect.getdoc(cls).split("Args:\n", 1)[1].splitlines()
        names = []
        for line in lines:
            if not line.startswith("    "):
                break
            match = re.match(r"    (\w+):", line)
            if match:
                names.append(match.group(1))
        return names

    @pytest.mark.parametrize("path", [
        "repro.service.LocationService",
        "repro.core.FusionEngine",
        "repro.shard.ShardCluster",
    ])
    def test_args_match_init(self, path):
        import importlib
        module, name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)
        parameters = list(inspect.signature(cls.__init__).parameters)
        assert self.documented(cls) == parameters[1:]

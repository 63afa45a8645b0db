"""LINT-HOTCOPY: whole-structure deep copies in loops / hot modules."""

from repro.analysis.codelint import lint_source


def rule_ids(source, path="t.py"):
    return [f.rule_id for f in lint_source(source, path)]


class TestHotCopyRule:
    def test_flags_deepcopy_in_for_loop(self):
        src = (
            "import copy\n"
            "def f(docs):\n"
            "    out = []\n"
            "    for d in docs:\n"
            "        out.append(copy.deepcopy(d))\n"
            "    return out\n")
        assert "LINT-HOTCOPY" in rule_ids(src)

    def test_flags_deep_copy_method_in_while_loop(self):
        src = (
            "def f(doc):\n"
            "    while doc:\n"
            "        doc = doc.deep_copy()\n")
        assert "LINT-HOTCOPY" in rule_ids(src)

    def test_flags_clone_in_loop(self):
        src = (
            "def f(trees):\n"
            "    return [t.clone() for t in trees if t]\n"
            "def g(trees):\n"
            "    for t in trees:\n"
            "        t.clone()\n")
        assert "LINT-HOTCOPY" in rule_ids(src)

    def test_flags_any_copy_in_hot_path_module(self):
        src = (
            "import copy\n"
            "def snapshot(state):\n"
            "    return copy.deepcopy(state)\n")
        assert "LINT-HOTCOPY" in rule_ids(
            src, path="src/repro/scale/engine.py")
        assert "LINT-HOTCOPY" in rule_ids(
            src, path="src/repro/snap/xmlstore.py")
        assert "LINT-HOTCOPY" in rule_ids(
            src, path="src/repro/snap/intern.py")

    def test_ignores_unlooped_copy_outside_hot_modules(self):
        src = (
            "import copy\n"
            "def snapshot(state):\n"
            "    return copy.deepcopy(state)\n")
        assert "LINT-HOTCOPY" not in rule_ids(
            src, path="src/repro/wsa/transport.py")

    def test_hot_module_match_is_on_directories_not_filename(self):
        src = (
            "import copy\n"
            "def f(state):\n"
            "    return copy.deepcopy(state)\n")
        # A *file* named snap.py outside the hot dirs is not hot.
        assert "LINT-HOTCOPY" not in rule_ids(src, path="src/repro/snap.py")

    def test_copy_routines_may_copy(self):
        src = (
            "def deep_copy(self):\n"
            "    clone = Node(self.tag)\n"
            "    for child in self.children:\n"
            "        clone.append(child.deep_copy())\n"
            "    return clone\n")
        assert "LINT-HOTCOPY" not in rule_ids(src)

    def test_pragma_waives_exactly_this_rule(self):
        src = (
            "import copy\n"
            "def f(docs):\n"
            "    for d in docs:\n"
            "        keep(copy.deepcopy(d))  # lint: allow=LINT-HOTCOPY\n")
        assert "LINT-HOTCOPY" not in rule_ids(src)

    def test_allow_pragma_is_rule_specific(self):
        # Waiving a different rule on the line suppresses nothing.
        src = (
            "import copy\n"
            "def f(docs):\n"
            "    for d in docs:\n"
            "        keep(copy.deepcopy(d))  # lint: allow=LINT-XPATHLOOP\n")
        assert "LINT-HOTCOPY" in rule_ids(src)

    def test_allow_pragma_is_line_specific(self):
        src = (
            "import copy\n"
            "def f(docs):\n"
            "    # lint: allow=LINT-HOTCOPY\n"
            "    for d in docs:\n"
            "        keep(copy.deepcopy(d))\n")
        assert "LINT-HOTCOPY" in rule_ids(src)

    def test_src_tree_is_clean(self):
        import pathlib

        from repro.analysis.codelint import lint_paths
        src_root = pathlib.Path(__file__).resolve().parents[2] / "src"
        report = lint_paths([src_root])
        assert report.by_rule("LINT-HOTCOPY") == []

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cograph_hc import (GenParams, align_to_graph, count_hc_wrt, newick_read,
                        random_cograph, read_edge_list, to_binary,
                        write_edge_list)
from cograph_hc.cli import main
from conftest import caterpillar_spec, tree_of

GRAPH = "n 4\nnames a b c d\na b\n"
P4_TEXT = "n 4\nnames a b c d\na b\nb c\nc d\n"
COLORING_A = "a\t1\nb\t2\nc\t1\nd\t1\n"
COLORING_B = "a\t1\nb\t2\nc\t1\nd\t2\n"
COLORING_SWAP = "a\t1\nb\t2\nc\t2\nd\t1\n"
CATERPILLAR = "(((a,b)1,c)0,d)0;\n"
SPLIT_TREE = "((a,b)1,(c,d)0)0;\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


def test_recognize(files, capsys):
    assert main(["recognize", files("g.txt", GRAPH)]) == 0
    assert capsys.readouterr().out == "COGRAPH ((a,b)1,c,d)0;\n"
    assert main(["recognize", files("p4.txt", P4_TEXT)]) == 1
    assert capsys.readouterr().out.startswith("NOT-COGRAPH ")


def test_recognize_bad_file(files, capsys):
    assert main(["recognize", files("bad.txt", "nonsense\n")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["recognize", "/nonexistent/file"]) == 2
    capsys.readouterr()


def test_cotree_subcommand(files, capsys, tmp_path):
    assert main(["cotree", files("g.txt", GRAPH),
                 "--binary", "left-comb"]) == 0
    assert capsys.readouterr().out == CATERPILLAR
    out = tmp_path / "t.nwk"
    assert main(["cotree", files("g2.txt", GRAPH), "-o", str(out)]) == 0
    assert out.read_text() == "((a,b)1,c,d)0;\n"
    # realize goes the other way
    assert main(["cotree", str(out), "--realize"]) == 0
    txt = capsys.readouterr().out
    assert "names a b c d" in txt and "0 1" in txt


def test_cotree_rejects_names_that_cannot_read_back(files, capsys, tmp_path):
    out = tmp_path / "t.nwk"
    graph = files("g.txt", "n 3\nnames a,b c d\na,b c\n")
    assert main(["cotree", graph, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: vertex name 'a,b' cannot be written to Newick\n"
    assert not out.exists()


def test_cotree_refuses_binary_with_realize(tmp_path, capsys):
    # refused before any file is read: the input need not exist
    out = tmp_path / "g.txt"
    assert main(["cotree", str(tmp_path / "missing.nwk"), "--realize",
                 "--binary", "left-comb", "-o", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: --binary cannot be used with --realize\n")
    assert not out.exists()


def test_realize_writes_an_edge_list_that_reads_back(files, capsys,
                                                    tmp_path):
    out = tmp_path / "g.txt"
    assert main(["cotree", files("t.nwk", "((2,0)1,1)0;\n"), "--realize",
                 "-o", str(out)]) == 0
    assert main(["recognize", str(out)]) == 0
    assert capsys.readouterr().out == "COGRAPH ((2,0)1,1)0;\n"
    hash_out = tmp_path / "h.txt"
    assert main(["cotree", files("u.nwk", "((a#b,c)1,d)0;\n"), "--realize",
                 "-o", str(hash_out)]) == 2
    assert capsys.readouterr() == (
        "", "error: vertex name 'a#b' cannot be written to an edge list\n")
    assert not hash_out.exists()


def test_count_refuses_names_that_cannot_be_written(files, capsys):
    # the old per-node writer printed "node (a(x,b,y)1 ...", three leaves
    graph = files("g.txt", "n 3\nnames a(x b,y c\na(x b,y\n")
    message = "error: vertex name 'a(x' cannot be written to Newick\n"
    for argv in (["recognize", graph], ["count", graph]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message)
    assert main(["count", graph, "--cotree",
                 files("t.nwk", "((a,b)1,c)0;\n")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_color_greedy_with_order(files, capsys, tmp_path):
    out = tmp_path / "c.txt"
    assert main(["color", files("g.txt", GRAPH), "--method", "greedy",
                 "--order", "a,b,c,d", "-o", str(out)]) == 0
    assert out.read_text() == COLORING_A
    assert capsys.readouterr().out == "colors 2\n"


def test_color_alg1(files, capsys, tmp_path):
    out = tmp_path / "c.txt"
    assert main(["color", files("g.txt", GRAPH), "--method", "alg1",
                 "--seed", "7", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "colors 2\n"
    assert main(["verify", files("g2.txt", GRAPH), str(out)]) == 0
    assert "hc=yes" in capsys.readouterr().out


def test_color_alg1_non_cograph(files, capsys):
    assert main(["color", files("p4.txt", P4_TEXT)]) == 1
    assert capsys.readouterr().out.startswith("NOT-COGRAPH ")


def test_color_bad_order(files, capsys):
    assert main(["color", files("g.txt", GRAPH), "--method", "greedy",
                 "--order", "a,z"]) == 2
    capsys.readouterr()
    # an empty order names the vertex '', not a random order
    assert main(["color", files("g2.txt", GRAPH), "--method", "greedy",
                 "--order", ""]) == 2
    assert capsys.readouterr() == (
        "", "error: unknown vertex '' in --order\n")


def test_color_order_needs_greedy(files, capsys, tmp_path):
    # alg1 (the default method) takes no order: refused, not ignored
    out = tmp_path / "c.txt"
    g = files("g.txt", GRAPH)
    for method in (["--method", "alg1"], []):
        assert main(["color", g, *method, "--order", "a,b,c,d",
                     "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: --order needs --method greedy\n")
    assert not out.exists()


def test_verify_summary_exit_codes(files, capsys):
    g = files("g.txt", GRAPH)
    assert main(["verify", g, files("b.txt", COLORING_B)]) == 0
    assert capsys.readouterr().out.startswith("proper=yes hc=yes greedy=no\n")
    assert main(["verify", g, files("a.txt", COLORING_A)]) == 0
    assert capsys.readouterr().out == "proper=yes hc=yes greedy=yes\n"
    bad = files("bad.txt", "a\t1\nb\t2\nc\t1\nd\t3\n")
    assert main(["verify", g, bad]) == 1
    assert "hc=no" in capsys.readouterr().out


def test_verify_witness_for_an_improper_coloring(files, capsys):
    g = files("g.txt", GRAPH)
    c = files("c.txt", "a\t1\nb\t1\nc\t1\nd\t2\n")
    assert main(["verify", g, c]) == 1
    assert capsys.readouterr().out == (
        "proper=no hc=no greedy=no\n"
        "proper=no: edge a-b has color 1 at both ends\n"
        "hc=no: the coloring is not proper\n"
        "greedy=no: the coloring is not proper\n")


def test_verify_witness_for_a_coloring_that_is_not_hc(files, capsys):
    # the union's children {a,b} and {d} carry {1,2} and {3}: no child
    # holds every color, which K3 needs; d has no neighbor at all
    g = files("g.txt", GRAPH)
    c = files("c.txt", "a\t1\nb\t2\nc\t1\nd\t3\n")
    assert main(["verify", g, c]) == 1
    assert capsys.readouterr().out == (
        "proper=yes hc=no greedy=no\n"
        "hc=no: K3 violation at a union: color sets [3] vs [1, 2]\n"
        "greedy=no: vertex d has color 3 and no neighbor of color 2\n")


def test_verify_witness_for_a_coloring_that_is_not_greedy(files, capsys):
    # hc, but the isolated d got color 2 although it sees no color 1
    g = files("g.txt", GRAPH)
    assert main(["verify", g, files("b.txt", COLORING_B)]) == 0
    assert capsys.readouterr().out == (
        "proper=yes hc=yes greedy=no\n"
        "greedy=no: vertex d has color 2 and no neighbor of color 1\n")
    # a color left out: b (color 3) sees no color 2, which nobody has
    gap = files("gap.txt", "a\t1\nb\t3\nc\t1\nd\t1\n")
    assert main(["verify", g, gap]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "greedy=no: vertex b has color 3 and no neighbor of color 2")


def test_verify_two_colored_empty_pair(files, capsys):
    g = files("g.txt", "n 2\nnames a b\n")
    assert main(["verify", g, files("c.txt", "a\t1\nb\t2\n")]) == 1
    assert "hc=no" in capsys.readouterr().out


def test_verify_on_a_graph_that_is_not_a_cograph(files, capsys):
    # a proper coloring of the path a-b-c-d: verify names the P4 as
    # recognize does, on stdout with exit 1
    p4 = files("p4.txt", P4_TEXT)
    assert main(["recognize", p4]) == 1
    witness = capsys.readouterr().out
    assert witness.startswith("NOT-COGRAPH ")
    assert main(["verify", p4, files("c.txt", COLORING_B)]) == 1
    assert capsys.readouterr() == (witness, "")


def test_verify_with_cotree(files, capsys):
    g = files("g.txt", GRAPH)
    cat = files("cat.nwk", CATERPILLAR)
    split = files("split.nwk", SPLIT_TREE)
    swap = files("swap.txt", COLORING_SWAP)
    assert main(["verify", g, swap, "--cotree", cat]) == 0
    assert capsys.readouterr().out == "ACCEPT\n"
    assert main(["verify", g, swap, "--cotree", split]) == 1
    out = capsys.readouterr().out
    assert "K3 violation" in out and "{c,d}" in out


@pytest.mark.parametrize("argv", [
    ["recognize"], ["cotree"], ["cotree", "--binary", "left-comb"],
    ["color", "--method", "alg1"], ["verify", "c.txt"], ["count"]],
    ids=["recognize", "cotree", "cotree-binary", "color", "verify", "count"])
def test_every_command_answers_a_p4_with_one_line(files, capsys, monkeypatch,
                                                  tmp_path, argv):
    # every command that builds the cotree names the P4 a-b-c-d the same
    # way; verify gets a proper coloring, so that the P4 is its only answer
    monkeypatch.chdir(tmp_path)
    files("p4.txt", P4_TEXT)
    files("c.txt", COLORING_B)
    assert main([argv[0], "p4.txt", *argv[1:]]) == 1
    assert capsys.readouterr() == ("NOT-COGRAPH a b c d\n", "")


@pytest.mark.parametrize("argv", [
    ["recognize"], ["cotree", "-o", "out"],
    ["cotree", "--binary", "left-comb", "-o", "out"],
    ["color", "--method", "greedy", "-o", "out"],
    ["color", "--method", "alg1", "-o", "out"], ["verify", "c.txt"],
    ["verify", "c.txt", "--cotree", "t.nwk"], ["count"],
    ["count", "--cotree", "t.nwk"]],
    ids=["recognize", "cotree", "cotree-binary", "color-greedy", "color-alg1",
         "verify", "verify-cotree", "count", "count-cotree"])
def test_every_command_refuses_an_empty_graph(files, capsys, monkeypatch,
                                              tmp_path, argv):
    # `n 0` has no answer: one line, exit 2, nothing on stdout and no file
    monkeypatch.chdir(tmp_path)
    files("g0.txt", "n 0\n")
    files("c.txt", "")
    files("t.nwk", "(v0,v1)0;\n")
    assert main([argv[0], "g0.txt", *argv[1:]]) == 2
    assert capsys.readouterr() == ("", "error: empty-graph\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tree", [
    "((x,y)1,z,w)0;\n",   # names the graph does not have
    "((a,c)1,b,d)0;\n",   # the graph's names, another graph
], ids=["other-names", "other-structure"])
@pytest.mark.parametrize("argv", [["verify", "g.txt", "c.txt"],
                                  ["count", "g.txt"]], ids=["verify", "count"])
def test_a_tree_file_of_another_graph_is_one_error(files, capsys, monkeypatch,
                                                   tmp_path, tree, argv):
    monkeypatch.chdir(tmp_path)
    files("g.txt", GRAPH)
    files("c.txt", COLORING_A)
    files("t.nwk", tree)
    assert main([*argv, "--cotree", "t.nwk"]) == 2
    assert capsys.readouterr() == (
        "", "error: t.nwk: cotree-graph-mismatch\n")


def test_files_may_start_with_a_byte_order_mark(files, capsys):
    g = files("g.txt", "\ufeff" + GRAPH)
    cat = files("cat.nwk", "\ufeff" + CATERPILLAR)
    assert main(["recognize", g]) == 0
    assert capsys.readouterr().out == "COGRAPH ((a,b)1,c,d)0;\n"
    assert main(["verify", g, files("swap.txt", "\ufeff" + COLORING_SWAP),
                 "--cotree", cat]) == 0
    assert capsys.readouterr().out == "ACCEPT\n"
    assert main(["cotree", cat, "--realize"]) == 0
    assert "names a b c d" in capsys.readouterr().out


def test_files_that_are_not_utf8_fail_with_one_line(files, capsys, tmp_path):
    def raw(name, data):
        (tmp_path / name).write_bytes(data)
        return str(tmp_path / name)
    g = files("g.txt", GRAPH)
    bad = raw("bad.txt", b"n 2\n\xff\xfe 1\n")
    assert main(["recognize", bad]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 (byte 0xff at offset 4)\n")
    # the offset counts a byte-order mark, and a cut multi-byte character
    # is named by its first byte
    bad = raw("bom.txt", "\ufeffn 2\n".encode() + b"0 \xc3")
    assert main(["count", bad]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 (byte 0xc3 at offset 9)\n")
    bad = raw("c.txt", b"a\t1\nb\t2\n\x80")
    assert main(["verify", g, bad]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 (byte 0x80 at offset 8)\n")
    bad = raw("t.nwk", "((é,b)1,c,d)0;".encode("latin-1"))
    assert main(["verify", g, files("a.txt", COLORING_A), "--cotree",
                 bad]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 (byte 0xe9 at offset 2)\n")


def test_files_are_read_with_newlines_translated(files, capsys):
    # "\r\n" and "\r" read as "\n", so Newick byte offsets are those of
    # the translated text, as text-mode reading gives them
    t = files("t.nwk", "((a,\r\nb)1,c,d)0;\r(")
    assert main(["cotree", t, "--realize"]) == 2
    want = capsys.readouterr().err
    assert main(["cotree", files("u.nwk", "((a,\nb)1,c,d)0;\n("),
                 "--realize"]) == 2
    assert capsys.readouterr().err.replace("u.nwk", "t.nwk") == want


def test_verify_refines_nonbinary_cotree(files, capsys):
    g = files("g.txt", GRAPH)
    disc = files("disc.nwk", "((a,b)1,c,d)0;\n")
    assert main(["verify", g, files("a.txt", COLORING_A),
                 "--cotree", disc]) == 0
    out = capsys.readouterr().out
    assert "refined non-binary cotree" in out and "ACCEPT" in out


def test_count(files, capsys):
    g = files("g.txt", GRAPH)
    assert main(["count", g]) == 0
    assert "labeled_total 8" in capsys.readouterr().out
    assert main(["count", g, "--cotree",
                 files("cat.nwk", CATERPILLAR)]) == 0
    out = capsys.readouterr().out
    assert "labeled_total 8" in out and "N 4 s 2" in out
    assert main(["count", files("k1.txt", "n 1\n")]) == 0
    assert "labeled_total 1" in capsys.readouterr().out
    # a root with three children: its left comb is counted, with no note
    disc = "((a,b)1,c,d)0;\n"
    t = align_to_graph(newick_read(disc), read_edge_list(GRAPH))
    assert main(["count", g, "--cotree", files("disc.nwk", disc)]) == 0
    assert capsys.readouterr() == (
        count_hc_wrt(to_binary(t, "left-comb")).render(), "")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: writing (or, with `at_flush`,
    flushing) raises BrokenPipeError. Its descriptor is the write end of
    a pipe whose read end is closed."""

    def __init__(self, at_flush=False):
        super().__init__()
        self.at_flush = at_flush
        read_end, self.fd = os.pipe()
        os.close(read_end)

    def fileno(self):
        return self.fd

    def write(self, text):
        if not self.at_flush:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.at_flush:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at_flush", [False, True], ids=["write", "flush"])
@pytest.mark.parametrize("argv", [["count"], ["recognize"]])
def test_broken_pipe_exits_2_with_one_line(files, capsys, monkeypatch,
                                           argv, at_flush):
    pipe = _ClosedPipe(at_flush)
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        assert main([*argv, files("g.txt", GRAPH)]) == 2
        # what is left goes to os.devnull, so the final flush cannot raise
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))
        assert os.write(pipe.fd, b"more output\n") == 12
    finally:
        os.close(pipe.fd)
    assert capsys.readouterr().err == (
        "error: standard output closed (broken pipe)\n")


def _caterpillar_edge_list(path, n):
    """Write the edge list of the depth-n caterpillar cotree, labels
    alternating, to path; return the graph."""
    from cograph_hc import realized_graph
    g = realized_graph(tree_of(caterpillar_spec(n)))
    path.write_text(write_edge_list(g), encoding="utf-8")
    return g


def _count_read_by_100_bytes(tmp_path, flags):
    """Exit code and stderr of `count` of a depth-1000 caterpillar, 4 MB,
    more than a pipe holds, whose reader leaves after 100 bytes."""
    path = tmp_path / "cat.txt"
    _caterpillar_edge_list(path, 1000)
    env = _fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("PYTHONDEVMODE", None)
    proc = subprocess.Popen([sys.executable, *flags, "-m", "cograph_hc.cli",
                             "count", str(path)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), err


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "-u"])
def test_a_reader_that_leaves_early_gets_exit_2_and_one_line(tmp_path,
                                                             flags):
    # Under -u the text layer wrote to the raw file and ignored its short
    # write: exit 0, no line.
    assert _count_read_by_100_bytes(tmp_path, flags) == (
        2, b"error: standard output closed (broken pipe)\n")


@pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "-u"])
def test_a_closed_pipe_leaves_no_file_to_warn_about(tmp_path, flags):
    # -X dev shows ResourceWarnings: a file opened on os.devnull to take
    # the rest of the output and never closed added a second line
    assert _count_read_by_100_bytes(tmp_path, ["-X", "dev", *flags]) == (
        2, b"error: standard output closed (broken pipe)\n")


def test_count_non_cograph(files, capsys):
    assert main(["count", files("p4.txt", P4_TEXT)]) == 1
    capsys.readouterr()


def test_check_small(files, capsys):
    assert main(["check", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_check_selected_theorems(capsys):
    assert main(["check", "--max-n", "3", "--theorems", "T1,T3"]) == 0
    out = capsys.readouterr().out
    assert "THEOREM T1 PASS" in out and "THEOREM T3 PASS" in out
    assert out.count("THEOREM") == 2


def test_check_refuses_a_repeated_theorem(capsys):
    assert main(["check", "--max-n", "3", "--theorems", "T1,T1"]) == 2
    assert capsys.readouterr() == (
        "", "error: duplicate theorem id 'T1'\n")


def _fresh_env() -> dict[str, str]:
    src = str(Path(__file__).parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# modules that recognizing a graph does not run
UNUSED_AT_START = ("dataclasses", "inspect", "cograph_hc.coloring",
                   "cograph_hc.hc_algorithms", "cograph_hc.generator",
                   "cograph_hc.oracle", "multiprocessing",
                   "concurrent.futures")

# Runs the CLI as `python -m cograph_hc.cli` does, with the arguments after
# -c, and at exit prints to stderr which of UNUSED_AT_START it loaded.
_RUN_AND_LIST = (
    "import atexit, runpy, sys\n"
    f"watch = {UNUSED_AT_START!r}\n"
    "atexit.register(lambda: print(sorted(m for m in watch\n"
    "                                     if m in sys.modules),\n"
    "                              file=sys.stderr))\n"
    "runpy.run_module('cograph_hc.cli', run_name='__main__')\n")


def _loaded_by(*argv: str) -> tuple[int, list[str]]:
    """Exit code and the modules of UNUSED_AT_START that one CLI command
    loads in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST, *argv],
                          env=_fresh_env(), capture_output=True, text=True)
    return proc.returncode, ast.literal_eval(proc.stderr.splitlines()[-1])


def test_cli_import_loads_no_process_pool():
    # `check` is serial, so starting the CLI imports neither
    # multiprocessing nor concurrent.futures; only `check` loads the oracle
    # (`exhaustive_cographs` imports its P4 search when first called). The
    # CLI loads `graph` and `cotree` alone, and each command the rest of
    # what it runs: neither `dataclasses` nor the coloring, counting or
    # generating code for `recognize`.
    code = ("import cograph_hc.cli, sys; print(sorted(m for m in "
            f"{UNUSED_AT_START!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                         check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_each_command_loads_only_what_it_runs(files):
    g = files("g.txt", GRAPH)
    c = files("c.txt", COLORING_A)
    assert _loaded_by("recognize", g) == (0, [])
    assert _loaded_by("cotree", g, "--binary", "left-comb") == (0, [])
    assert _loaded_by("color", g, "--method", "greedy") == (
        0, ["cograph_hc.coloring"])
    assert _loaded_by("verify", g, c) == (0, ["cograph_hc.coloring"])
    code, loaded = _loaded_by("count", g)
    assert code == 0 and "cograph_hc.coloring" not in loaded
    assert "cograph_hc.hc_algorithms" in loaded
    # `GenParams` is a NamedTuple: `gen` loads neither dataclasses nor inspect
    assert _loaded_by("gen", "--n", "30", "--seed", "4") == (
        0, ["cograph_hc.generator"])


def test_every_subcommand_runs_in_a_fresh_interpreter(tmp_path, monkeypatch,
                                                      capsys):
    # Each command in its own process, where only what it imports is
    # loaded: code that reaches a module some other import happened to load
    # works in this test session, which has loaded them all, but fails
    # there. Each process must give the expected exit code and match main()
    # run here: standard output and the files in the directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p4.txt").write_text(P4_TEXT, encoding="utf-8")
    (tmp_path / "p4c.txt").write_text(COLORING_B, encoding="utf-8")
    commands = [
        (0, "gen", "--n", "30", "--seed", "4", "--graph-out", "g.txt",
         "--cotree-out", "t.nwk"),
        (0, "recognize", "g.txt"),
        (0, "cotree", "g.txt", "--binary", "chi-ascending", "-o", "b.nwk"),
        (0, "color", "g.txt", "--method", "greedy", "-o", "c2.txt"),
        (0, "color", "g.txt", "--method", "alg1", "-o", "c1.txt"),
        (0, "verify", "g.txt", "c2.txt"),
        (0, "verify", "g.txt", "c2.txt", "--cotree", "b.nwk"),
        (1, "verify", "g.txt", "c1.txt", "--cotree", "b.nwk"),
        (0, "count", "g.txt"),
        (0, "count", "g.txt", "--cotree", "b.nwk"),
        (0, "count", "g.txt", "--cotree", "t.nwk"),
        (0, "cotree", "t.nwk", "--realize", "-o", "r.txt"),
        (1, "verify", "p4.txt", "p4c.txt"),
        (1, "count", "p4.txt"),
    ]
    outputs = []
    for code, *argv in commands:
        proc = subprocess.run([sys.executable, "-m", "cograph_hc.cli",
                               *argv], env=_fresh_env(), capture_output=True,
                              text=True)
        assert (proc.returncode, proc.stderr) == (code, ""), argv
        files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert main(argv) == code
        assert capsys.readouterr() == (proc.stdout, "")
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == files
        outputs.append(proc.stdout)
    assert outputs[1].startswith("COGRAPH ")
    assert outputs[5] == "proper=yes hc=yes greedy=yes\n"
    assert outputs[6] == "ACCEPT\n"
    assert outputs[7].startswith("K3 violation at node over ")
    assert outputs[8].splitlines()[-1].startswith("labeled_total ")
    assert outputs[-2:] == ["NOT-COGRAPH a b c d\n"] * 2
    g, r = (read_edge_list((tmp_path / f).read_text())
            for f in ("g.txt", "r.txt"))
    assert (r.adj, r.vertex_names()) == (g.adj, g.vertex_names())


# Runs the CLI as `python -m cograph_hc.cli` does, with the arguments after
# -c, and at exit prints to stderr its peak resident set in KiB, from its
# own memory map.
_RUN_AND_PEAK = (
    "import atexit, re, runpy, sys\n"
    "atexit.register(lambda: print(re.search(r'VmHWM:\\s*(\\d+)', open(\n"
    "    '/proc/self/status').read())[1], file=sys.stderr))\n"
    "runpy.run_module('cograph_hc.cli', run_name='__main__')\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_count_of_a_deep_caterpillar_peaks_in_bounded_memory(tmp_path):
    # depth 2000: an 18.7 MB report. A copy of every node's subtree text,
    # then the report rendered and encoded whole, peaked 56 MB above
    # `recognize` of the same file; written a line at a time, under 1 MB.
    from cograph_hc import count_hc_total
    path, out = tmp_path / "cat.txt", tmp_path / "out.txt"
    g = _caterpillar_edge_list(path, 2000)
    peaks = []
    for command in ("recognize", "count"):
        with open(out, "wb") as stdout:
            proc = subprocess.run([sys.executable, "-c", _RUN_AND_PEAK,
                                   command, str(path)], env=_fresh_env(),
                                  stdout=stdout, stderr=subprocess.PIPE,
                                  text=True, check=True)
        peaks.append(int(proc.stderr) / 1024)
    assert peaks[1] - peaks[0] < 10, peaks
    assert out.read_text(encoding="utf-8") == count_hc_total(g).render()


def test_check_guards(capsys):
    assert main(["check", "--max-n", "12"]) == 2
    assert "size-guard" in capsys.readouterr().err
    assert main(["check", "--max-n", "3", "--theorems", "T9"]) == 2
    assert capsys.readouterr() == (
        "", "error: unknown theorem id 'T9'\n")
    # an empty list names the theorem '', not all of them
    assert main(["check", "--max-n", "3", "--theorems", ""]) == 2
    assert capsys.readouterr() == ("", "error: unknown theorem id ''\n")
    assert main(["check", "--max-n", "0"]) == 2
    assert capsys.readouterr() == ("", "error: --max-n must be >= 1\n")


def test_gen_roundtrip(tmp_path, capsys):
    gout = tmp_path / "g.txt"
    tout = tmp_path / "t.nwk"
    assert main(["gen", "--n", "8", "--seed", "5",
                 "--graph-out", str(gout), "--cotree-out", str(tout)]) == 0
    text = gout.read_text()
    assert text.startswith("# gen seed 5 n 8")
    assert main(["recognize", str(gout)]) == 0
    capsys.readouterr()
    # regenerating with the same seed is byte-identical
    gout2 = tmp_path / "g2.txt"
    assert main(["gen", "--n", "8", "--seed", "5",
                 "--graph-out", str(gout2)]) == 0
    assert gout2.read_text() == text


def test_gen_writes_the_header_then_the_edge_list(tmp_path, capsys):
    gout = tmp_path / "g.txt"
    assert main(["gen", "--n", "30", "--seed", "4", "--max-arity", "4",
                 "--graph-out", str(gout)]) == 0
    g, _ = random_cograph(GenParams(n=30, seed=4, max_arity=4))
    expected = ("# gen seed 4 n 30 max_arity 4 balance 0.5\n"
                + write_edge_list(g))
    assert gout.read_bytes() == expected.encode("utf-8")
    assert main(["gen", "--n", "30", "--seed", "4", "--max-arity",
                 "4"]) == 0
    assert capsys.readouterr().out == expected


def test_check_verbose_prints_notes_counterexamples_and_time(capsys):
    assert main(["check", "--max-n", "5", "--theorems", "T-greedy-iff",
                 "--verbose"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "THEOREM T-greedy-iff FAIL checked=535 counterexamples=120"
    assert len(lines) == 4
    # instance 84 is the paw plus an isolated vertex: triangle 0, 1, 2,
    # pendant 3 on 0, isolated 4; its classes {0}, {1,4}, {2,3} pass every
    # binary cotree, but no greedy run gives them
    assert ("  counterexample: (84, 'hc-everywhere-not-greedy', "
            "[[0], [1, 4], [2, 3]])") in lines
    assert captured.err.startswith("elapsed: ")
    assert main(["check", "--max-n", "5", "--theorems", "T-greedy-iff"]) == 1
    assert capsys.readouterr() == (lines[0] + "\n", "")


def test_check_verbose_caps_the_notes(capsys):
    assert main(["check", "--max-n", "4", "--theorems", "COUNT",
                 "--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("THEOREM COUNT PASS")
    assert len(lines) == 7
    assert all(line.startswith("  note: instance ") for line in lines[1:6])
    assert lines[6].startswith("  ... ") and lines[6].endswith(" more notes")


def _fuzz_inputs():
    """An 8-vertex named cograph, a binary cotree of it and an alg1
    coloring, as the text of the three file formats."""
    from cograph_hc import (GenParams, Graph, alg1_color, build_cotree,
                            newick_write, random_cograph, to_binary,
                            write_coloring, write_edge_list)
    g, _ = random_cograph(GenParams(n=8, seed=3))
    g = Graph(8, list(g.edges()), names=tuple("abcdefgh"))
    tree = newick_write(to_binary(build_cotree(g))) + "\n"
    coloring = write_coloring(g, alg1_color(g)[0])
    return write_edge_list(g), coloring, tree


def _variants(text, seed):
    """The text cut off at every byte, then 200 copies with one byte
    replaced by a seeded random byte."""
    import random
    data = text.encode()
    rng = random.Random(seed)
    out = [data[:i] for i in range(len(data))]
    for _ in range(200):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] = rng.randrange(256)
        out.append(bytes(flipped))
    return out


def test_fuzzed_files_never_escape_main(tmp_path):
    # every subcommand, fed truncated and byte-flipped files: the return
    # code is 0, 1 or 2, and no exception but SystemExit gets out of main
    import contextlib
    import time
    graph, coloring, tree = _fuzz_inputs()
    paths = {name: tmp_path / name for name in ("g.txt", "c.txt", "t.nwk")}
    for name, text in zip(paths, (graph, coloring, tree)):
        paths[name].write_text(text)
    g, c, t = (str(p) for p in paths.values())
    out = str(tmp_path / "out")
    by_file = {
        "g.txt": [["recognize", g], ["cotree", g, "--binary", "left-comb"],
                  ["color", g], ["color", g, "--method", "greedy",
                                 "--order", "a,b,c,d,e,f,g,h"],
                  ["verify", g, c], ["verify", g, c, "--cotree", t],
                  ["count", g], ["count", g, "--cotree", t]],
        "c.txt": [["verify", g, c], ["verify", g, c, "--cotree", t]],
        "t.nwk": [["cotree", t, "--realize"],
                  ["verify", g, c, "--cotree", t], ["count", g, "--cotree", t]],
    }
    fixed = [["check", "--max-n", "2"], ["check", "--max-n", "9"],
             ["check", "--max-n", "2", "--theorems", "T1,,T3"],
             ["gen", "--n", "8", "--graph-out", out, "--cotree-out", out],
             ["gen", "--n", "0"], ["gen", "--n", "5", "--max-arity", "1"],
             ["color", g, "--method", "greedy", "--order", "a,b"],
             ["cotree", g, "-o", str(tmp_path)]]

    def run(argv, data=None):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any other escape is the failure sought
            pytest.fail(f"{argv} on {data!r} raised {exc!r}")
        assert code in (0, 1, 2), (argv, data, code, sink.getvalue())

    start = time.perf_counter()
    for argv in fixed:
        run(argv)
    for seed, (name, commands) in enumerate(by_file.items()):
        original = paths[name].read_bytes()
        for data in _variants(original.decode(), seed):
            # a fresh file per variant: truncating one that holds data can
            # cost tens of milliseconds, more than the commands run here
            paths[name].unlink()
            paths[name].write_bytes(data)
            for argv in commands:
                run(argv, data)
        paths[name].unlink()
        paths[name].write_bytes(original)
    assert time.perf_counter() - start < 10


def test_tokens_neither_names_nor_ascii_decimals_exit_2(files, capsys):
    # int() read "1_0 +3" as the edge (10, 3) and "-0" as vertex 0
    g2 = files("g2.txt", "n 2\n0 1\n")
    cases = [
        (["recognize", files("us.txt", "n 12\n1_0 +3\n")],
         "line 2: bad edge '1_0 +3'"),
        (["recognize", files("neg0.txt", "n 2\n-0 1\n")],
         "line 2: bad edge '-0 1'"),
        (["recognize", files("sup.txt", "n \u00b2\n")],
         "line 1: expected 'n <count>'"),
        (["verify", g2, files("color.txt", "v0\t1\nv1\t\u00b2\n")],
         "line 2: bad color '\u00b2'"),
        (["verify", g2, files("vertex.txt", "\u00b2\t1\nv1\t2\n")],
         "line 1: unknown vertex '\u00b2'"),
        (["color", g2, "--method", "greedy", "--order", "0,\u00b9"],
         "unknown vertex '\u00b9' in --order"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), (argv, err)
        assert err.endswith(message + "\n") and err.count("\n") == 1, err


def test_malformed_inputs_exit_2_with_one_line(files, capsys):
    g2 = files("g2.txt", "n 2\n0 1\n")
    ok_coloring = files("c2.txt", "v0\t1\nv1\t2\n")
    cases = [
        ["recognize", files("loop.txt", "n 3\n0 0\n")],
        ["recognize", files("range.txt", "n 3\n0 5\n")],
        ["recognize", files("neg.txt", "n -1\n")],
        ["recognize", files("dup.txt", "n 2\nnames a a\n")],
        ["verify", g2, files("word.txt", "v0\tx\nv1\t1\n")],
        ["verify", g2, files("twice.txt", "v0\t1\nv0\t2\nv1\t1\n")],
        ["verify", g2, files("miss.txt", "v0\t1\n")],
        ["verify", g2, ok_coloring, "--cotree", files("t.nwk", "(v0,zz)1;")],
        ["count", g2, "--cotree", files("t2.nwk", "(v0,zz)1;")],
        ["gen", "--n", "0"],
        ["gen", "--n", "5", "--max-arity", "1"],
        ["check", "--max-n", "9"],
        ["color", g2, "--method", "greedy", "--order", "v0"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), (argv, out, err)
        assert err.count("\n") == 1, (argv, err)

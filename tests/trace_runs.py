"""Run the shipped entry points under a profile hook and print, as JSON,
each run's exit code and every def of src/hardylab whose code never ran.

Usage: python tests/trace_runs.py OUT_DIR

The runs, all through `hardylab.cli.main`: every scripts/configs/*.cfg;
every config of the benchmark's workloads at seed 0 (perfbench/workloads.py,
loaded read-only), which adds the 2D E1, E2, E4 and E5 runs (every shipped
config is 1D); E3 and E4 at 1D m = 512 for each catalog operator;
`validate-atom` in 2D; `psi`, `list-operators` and `version`. The hook is
set on this thread and on every thread started later (the pool starts its
threads at its first submit) before `hardylab` is imported, so each def
that runs, in any thread, is seen. A def counts as run when its code
object was entered, which covers methods, properties and nested defs that
a name match cannot see.

Output: {"runs": [[name, exit code, numerical failure?], ...],
"unrun": [["module.qualname", lines], ...]}.
"""

import sys
import threading

seen = set()


def _hook(frame, event, arg):
    seen.add(frame.f_code)


sys.setprofile(_hook)
threading.setprofile(_hook)

import ast  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import hardylab  # noqa: E402
from hardylab.cli import main  # noqa: E402
from hardylab.operators import builtin_operators  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

SMALL = """[experiment]
scenario = {scenario}
seed = 3
[grid]
dim = 1
m = 512
L = 4
[scenario]
operator = {operator}
r_ladder = 2^-2, 2^-3
tag = {tag}
"""


def workload_configs():
    """(name, text at seed 0) of every config of the benchmark's workloads."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.modules[spec.name] = workloads  # where its dataclasses look
    spec.loader.exec_module(workloads)
    return [(f"{w.name}/{c.name}", c.text(0)) for w in workloads.WORKLOADS.values() for c in w.configs]


def runs(out: Path):
    """(name, argv) of every run."""
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        yield cfg.name, ["run", str(cfg), "--quiet", "--out-dir", str(out)]
    for name, text in workload_configs():
        cfg = out / "workloads" / f"{name}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(text)
        yield name, ["run", str(cfg), "--quiet", "--out-dir", str(cfg.parent)]
    for op in builtin_operators():
        # E3 alone takes n_seeds
        for scenario, short, extra in (("E3-atom-image", "e3", "n_seeds = 1\n"),
                                       ("E4-cancellation", "e4", "")):
            tag = f"{short}-{op}"
            cfg = out / f"{tag}.cfg"
            cfg.write_text(SMALL.format(scenario=scenario, operator=op, tag=tag) + extra)
            yield tag, ["run", str(cfg), "--quiet", "--out-dir", str(out)]
    yield "validate-atom --dim 2", ["validate-atom", "--p", "1", "--dim", "2", "--grid-m", "128"]
    yield "psi", ["psi", "1", "0", "0.5"]
    yield "list-operators", ["list-operators"]
    yield "version", ["version"]


def defs(path: Path):
    """(first line, name, qualname, line count) of every def in the module,
    methods and nested defs included; the first line is a decorated def's
    first decorator, as in its code object."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, child.name, prefix + child.name, child.end_lineno - first + 1))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


def trace() -> int:
    done = []
    for name, argv in runs(Path(sys.argv[1])):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        done.append([name, code, "numerical failure" in err.getvalue()])
    sys.setprofile(None)
    threading.setprofile(None)
    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in seen}
    unrun = []
    for path in sorted(Path(hardylab.__file__).resolve().parent.glob("*.py")):
        for first, name, qualname, lines in defs(path):
            if (str(path), first, name) not in ran:
                unrun.append([f"{path.stem}.{qualname}", lines])
    print(json.dumps({"runs": done, "unrun": unrun}))
    return 0


if __name__ == "__main__":
    sys.exit(trace())

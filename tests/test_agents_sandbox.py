"""Tests for the sandboxed interpreter."""

import sys

import pytest

from repro.agents import sandbox as sandbox_module
from repro.agents.sandbox import Sandbox, validate_code
from repro.agents.tools import Tool, ToolRegistry
from repro.obs import Tracer
from repro.errors import SandboxSecurityError


def test_basic_execution_and_stdout():
    result = Sandbox().execute("print('hello', 1 + 2)")
    assert result.stdout == "hello 3\n"
    assert result.error is None
    assert not result.finished


def test_namespace_persists_across_steps():
    sandbox = Sandbox()
    sandbox.execute("x = 41")
    result = sandbox.execute("print(x + 1)")
    assert result.stdout.strip() == "42"


def test_final_answer_finishes_episode():
    result = Sandbox().execute("final_answer({'ratio': 2.5})")
    assert result.finished
    assert result.final_answer == {"ratio": 2.5}


def test_tools_are_callable():
    sandbox = Sandbox(tools={"double": lambda v: v * 2})
    result = sandbox.execute("print(double(21))")
    assert result.stdout.strip() == "42"


def test_allowed_imports_work():
    result = Sandbox().execute("import json\nprint(json.dumps([1, 2]))")
    assert result.stdout.strip() == "[1, 2]"
    result = Sandbox().execute("import re\nprint(re.findall(r'\\d+', 'a1b22'))")
    assert "22" in result.stdout


def test_forbidden_import_rejected():
    result = Sandbox().execute("import os")
    assert result.error and "not allowed" in result.error


def test_forbidden_import_from_rejected():
    result = Sandbox().execute("from subprocess import run")
    assert result.error and "not allowed" in result.error


def test_open_is_unavailable():
    result = Sandbox().execute("open('/etc/passwd')")
    assert result.error and "open" in result.error


def test_eval_exec_unavailable():
    assert Sandbox().execute("eval('1+1')").error
    assert Sandbox().execute("exec('x=1')").error


def test_dunder_attribute_access_rejected():
    result = Sandbox().execute("(1).__class__")
    assert result.error and "not allowed" in result.error


def test_underscored_attribute_rejected():
    result = Sandbox().execute("x = []\nx._private")
    assert result.error


def test_class_definition_rejected():
    result = Sandbox().execute("class Evil: pass")
    assert result.error and "ClassDef" in result.error


def test_syntax_error_reported_not_raised():
    result = Sandbox().execute("def broken(:")
    assert result.error and "syntax" in result.error.lower()


def test_runtime_error_captured_with_type():
    result = Sandbox().execute("1 / 0")
    assert "ZeroDivisionError" in result.error


def test_infinite_loop_hits_step_budget():
    result = Sandbox(max_lines=10_000).execute("while True:\n    pass")
    assert result.error and "step budget" in result.error


def test_stdout_preserved_before_error():
    result = Sandbox().execute("print('before')\n1/0")
    assert result.stdout.strip() == "before"
    assert result.error


def test_functions_and_comprehensions_allowed():
    code = (
        "def square(v):\n"
        "    return v * v\n"
        "print(sum(square(i) for i in range(4)))\n"
    )
    assert Sandbox().execute(code).stdout.strip() == "14"


def test_validate_code_returns_tree():
    tree = validate_code("x = 1")
    assert tree is not None
    with pytest.raises(SandboxSecurityError):
        validate_code("import socket")


def test_modules_preloaded_without_import():
    result = Sandbox().execute("print(math.sqrt(16))")
    assert result.stdout.strip() == "4.0"


# --- the step budget: agent code is metered wherever it runs, tools never ---

BUDGET = 1000
BUDGET_ERROR = f"agent code exceeded the step budget of {BUDGET} lines"


def _consume(iterable):
    return sum(1 for _ in iterable)


def _apply(fn, n):
    return [fn(i) for i in range(n)][-1]


def _budgeted() -> Sandbox:
    """A sandbox with real tools that run agent generators and callbacks."""
    tools = [
        Tool(name="consume", description="count an iterable", fn=_consume),
        Tool(name="apply", description="call fn on 0..n-1", fn=_apply),
    ]
    return Sandbox(tools=ToolRegistry(tools).as_namespace(), max_lines=BUDGET)


@pytest.mark.parametrize(
    "code",
    [
        "while True:\n    pass",
        "n = 0\nfor i in range(10**6):\n    n += i",
        "print(len([i for i in range(10**6)]))",
        "print(len([0 for i in range(10**6) if i < 0]))",
        "print(sum(map(lambda v: v, range(10**6))))",
        "def gen(n):\n    for i in range(n):\n        yield i\nprint(sum(gen(10**6)))",
        "print(consume(i for i in range(10**6)))",
        "def cb(v):\n    return v\nprint(apply(cb, 10**6))",
        # Rebinding attempts: none of them can reach the step counter.
        "def __step__():\n    return True\nwhile True:\n    pass",
        "def f(__step__=bool):\n    while True:\n        pass\nf()",
        "from collections import Counter as __step__\nwhile True:\n    pass",
    ],
    ids=[
        "while", "for", "listcomp", "listcomp-filtered-out", "map-lambda",
        "generator-function", "genexp-consumed-by-tool", "callback-called-by-tool",
        "def-__step__", "default-arg-__step__", "import-as-__step__",
    ],
)
def test_runaway_agent_code_hits_the_budget(code):
    result = _budgeted().execute(code)
    assert result.error == BUDGET_ERROR


def test_function_defined_in_one_step_is_metered_in_the_next():
    sandbox = _budgeted()
    defined = sandbox.execute(
        "def spin(n):\n    t = 0\n    for i in range(n):\n        t += i\n    return t"
    )
    assert defined.error is None
    assert sandbox.execute("print(spin(10))").stdout == "45\n"
    assert sandbox.execute("print(spin(10**6))").error == BUDGET_ERROR


@pytest.mark.parametrize(
    "tail", ["for i in range(300000):\n    n += 1\nprint(n)\n", "print(n)\n"],
    ids=["long-tail", "short-tail"],
)
def test_caught_budget_error_cannot_resume(tail):
    # A runaway loop inside try/except Exception: the handler's own first
    # statement ticks past the budget, so the rest of the step never runs.
    code = "n = 0\ntry:\n    while True:\n        n += 1\nexcept Exception:\n    pass\n" + tail
    result = Sandbox(max_lines=BUDGET).execute(code)
    assert result.error == BUDGET_ERROR
    assert result.stdout == ""


def test_budget_hit_inside_a_traced_tool_is_not_a_tool_error():
    tracer = Tracer()
    tools = ToolRegistry([Tool(name="consume", description="count", fn=_consume)])
    tools.instrument(tracer)
    sandbox = Sandbox(tools=tools.as_namespace(), max_lines=BUDGET)
    result = sandbox.execute("consume(i for i in range(10**6))")
    assert result.error == BUDGET_ERROR
    (span,) = tracer.spans
    assert span.name == "tool:consume" and span.attributes["error"] is True


@pytest.mark.parametrize("n", [1, 50])
def test_a_line_is_one_executed_statement(n):
    code = "x = 1\n" * n
    assert Sandbox(max_lines=n).execute(code).error is None
    assert Sandbox(max_lines=n - 1).execute(code).error == (
        f"agent code exceeded the step budget of {n - 1} lines"
    )


@pytest.mark.parametrize(
    "code, lines",
    [
        ("for i in range(2):\n    pass\nelse:\n    y = 1\n", 4),
        ("try:\n    1 / 0\nexcept ZeroDivisionError:\n    y = 1\nfinally:\n    y = 2\n", 4),
        ("match 1:\n    case 1:\n        y = 1\n", 2),
        ("print([i for i in range(3) if i])\n", 4),
        ("print(list(map(lambda v: v, range(3))))\n", 4),
    ],
    ids=["for-else", "try-except-finally", "match-case", "comprehension", "lambda"],
)
def test_every_statement_list_item_and_lambda_call_is_a_line(code, lines):
    assert Sandbox(max_lines=lines).execute(code).error is None
    assert Sandbox(max_lines=lines - 1).execute(code).error == (
        f"agent code exceeded the step budget of {lines - 1} lines"
    )


def test_trusted_code_is_never_metered():
    def busy(n):
        total = 0
        for i in range(n):
            total += i
        return total

    sandbox = Sandbox(tools={"busy": busy}, max_lines=BUDGET)
    result = sandbox.execute(f"print(busy({10 * BUDGET}))")
    assert result.error is None
    assert result.stdout == f"{sum(range(10 * BUDGET))}\n"


def test_tools_run_under_the_callers_trace_function():
    def outer(frame, event, arg):
        return None

    seen = []
    sandbox = Sandbox(tools={"probe": lambda: seen.append(sys.gettrace())})
    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        result = sandbox.execute("probe()")
        after = sys.gettrace()
    finally:
        sys.settrace(previous)
    assert result.error is None
    assert seen == [outer]
    assert after is outer


# --- str.format reads attributes at run time, out of the AST check's sight ---


@pytest.mark.parametrize(
    "code",
    [
        'print("{0.__class__.__mro__}".format(1))',
        'print("{0.__globals__[Sandbox]}".format(tool))',
        'x = "{0.__class__}"\nprint(x.format(tool))',
        'print(str.format("{0.__class__}", tool))',
        'print("{t.__globals__}".format_map({"t": tool}))',
    ],
    ids=["literal", "tool-globals", "through-a-variable", "str.format", "format_map"],
)
def test_format_is_rejected_on_every_execution(code):
    sandbox = Sandbox(tools={"tool": _consume})
    first = sandbox.execute(code)
    assert first.error.startswith("access to 'format")
    assert "f-string" in first.error
    assert first.stdout == ""
    assert sandbox.execute(code) == first
    with pytest.raises(SandboxSecurityError):
        validate_code(code)


def test_f_string_fields_are_checked_like_any_expression():
    assert Sandbox().execute('print(f"{1 + 1}")').stdout == "2\n"
    assert "underscored" in Sandbox().execute('print(f"{(1).__class__}")').error


# --- the compiled-program memo: shared across sandboxes, metered per run ---


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test, with every ``validate_code`` call counted."""
    fresh: dict = {}
    calls: list[str] = []

    def counting(code):
        calls.append(code)
        return validate_code(code)

    monkeypatch.setattr(sandbox_module, "_COMPILED", fresh)
    monkeypatch.setattr(sandbox_module, "validate_code", counting)
    return fresh, calls


def test_a_program_is_compiled_once_per_process(memo):
    compiled, calls = memo
    code = "print(sum(i * i for i in range(4)))"
    assert Sandbox().execute(code).stdout == "14\n"
    assert Sandbox().execute(code).stdout == "14\n"
    assert calls == [code]
    assert list(compiled) == [code]


def test_a_memo_hit_is_metered_at_its_own_sandboxs_budget(memo):
    _, calls = memo
    code = "while True:\n    pass"
    sandbox = Sandbox(max_lines=BUDGET)
    assert sandbox.execute(code).error == BUDGET_ERROR
    assert sandbox.execute(code).error == BUDGET_ERROR
    small = Sandbox(max_lines=10).execute(code)
    assert small.error == "agent code exceeded the step budget of 10 lines"
    assert calls == [code]


def test_a_memo_hit_runs_in_its_own_sandboxs_namespace(memo):
    _, calls = memo
    code = "value = tool()\nprint(value)"
    first = Sandbox(tools={"tool": lambda: "a"})
    second = Sandbox(tools={"tool": lambda: "b"})
    assert first.execute(code).stdout == "a\n"
    assert second.execute(code).stdout == "b\n"
    assert first.execute("print(value)").stdout == "a\n"
    first.execute("only_first = 1")
    assert second.execute("print(only_first)").error == (
        "NameError: name 'only_first' is not defined"
    )
    assert calls.count(code) == 1


@pytest.mark.parametrize(
    "code",
    ["import os", "def broken(:", "*a", "(1).__class__", 'print("{0}".format(1))'],
    ids=["import", "syntax", "compile-time", "underscore", "format"],
)
def test_a_rejected_program_is_never_stored(memo, code):
    compiled, calls = memo
    first = Sandbox().execute(code)
    assert first.error
    assert Sandbox().execute(code) == first
    assert calls == [code, code]
    assert compiled == {}


def test_the_memo_never_holds_more_than_its_cap(memo, monkeypatch):
    compiled, _ = memo
    monkeypatch.setattr(sandbox_module, "_COMPILED_CAP", 3)
    for n in range(10):
        code = f"print({n})"
        assert Sandbox().execute(code).stdout == f"{n}\n"
        assert len(compiled) <= 3
        assert code in compiled

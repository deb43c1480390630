import ast
from pathlib import Path


def test_every_approx_states_abs():
    # pytest.approx(x, rel=r) alone also accepts anything within 1e-12
    # absolute, which swamps r for SI quantities (energies in J, times in s);
    # every approx therefore states its absolute tolerance too
    missing = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "approx" and not any(k.arg == "abs" for k in node.keywords):
                missing.append(f"{path.name}:{node.lineno}")
    assert not missing, missing

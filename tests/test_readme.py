"""README's library quick tour runs, and the values its comments claim hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    section = README.read_text().split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_its_claims_hold():
    code = quick_tour()
    namespace = {}
    exec(code, namespace)

    def value_and_claim(start):
        # The value of the line's expression, and the number its comment claims.
        line = next(line for line in code.splitlines() if line.startswith(start))
        expression, comment = line.split("#", 1)
        claim = re.search(r"~ ?(?:1 - )?(\d(?:\.\d+)?e-\d+)$", comment.strip())
        return eval(expression, namespace), float(claim.group(1))

    lvn, lvn_claim = value_and_claim("lvn_residual(")
    fidelity, infidelity_claim = value_and_claim("abs(np.vdot(")
    assert lvn < 10 * lvn_claim
    assert 1 - fidelity < 10 * infidelity_claim

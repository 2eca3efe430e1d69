"""README's Quick start runs as written and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_blocks_print_their_claims():
    # every ```python block of README in order, in one namespace, as a
    # reader pasting them into one interpreter would run them
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 4
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    # print(res.sigma_tot)  # 2.468...
    assert lines[0].startswith("2.468")
    # the marched against the exact outer impedance, exp2a at 2000 steps
    assert float(lines[-1]) < 5e-6

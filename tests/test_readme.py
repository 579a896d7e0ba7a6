"""README.md's ```python blocks run in order, in one namespace, next to a trace
file, so the documented library API cannot drift from the code."""
import re
from pathlib import Path

from rrcstorm import run, write_trace
from rrcstorm.presets import default_gnb, scenario_from_preset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) >= 2
    # The blocks read t.rrctrace.jsonl from the working directory.
    write_trace(run(scenario_from_preset("paper-attack-0", 1), default_gnb()).trace,
                tmp_path / "t.rrctrace.jsonl")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert (tmp_path / "t.verdicts.jsonl").exists()

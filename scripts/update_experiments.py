#!/usr/bin/env python3
"""Regenerates the measured-anchors section of EXPERIMENTS.md from a
report run:

    cargo run --release -p dhub-cli -- report --repos 400 --seed 20170530 --scale 128 > report_output.txt
    python3 scripts/update_experiments.py
"""
import re
import pathlib

root = pathlib.Path(__file__).resolve().parent.parent
report = (root / "report_output.txt").read_text()

rows = []
current = None
for line in report.splitlines():
    m = re.match(r"== (.+?) — (.+) ==", line)
    if m:
        current = m.group(1)
        continue
    m = re.match(
        r"\s+(.+?)\s+paper\s+([0-9.]+)\s+measured\s+([0-9.]+)\s+ratio\s+([0-9.]+|inf)", line
    )
    if m and current:
        rows.append((current, m.group(1).strip(), m.group(2), m.group(3), m.group(4)))

section = ["## Measured anchors (reference run)", ""]
header = report.splitlines()[0].removeprefix("generating hub: ")
section.append(f"Generated from `dhub report` at `{header}` — regenerate with the commands above.")
section.append("")
section.append("| Artifact | Anchor | Paper | Measured | Ratio |")
section.append("|---|---|---:|---:|---:|")
for artifact, name, paper, measured, ratio in rows:
    section.append(f"| {artifact} | {name} | {paper} | {measured} | {ratio} |")
section.append("")

exp_path = root / "EXPERIMENTS.md"
text = exp_path.read_text()
marker = "## Measured anchors (reference run)"
if marker in text:
    text = text[: text.index(marker)].rstrip() + "\n\n"
text += "\n".join(section) + "\n"
exp_path.write_text(text)
print(f"wrote {len(rows)} anchors to EXPERIMENTS.md")

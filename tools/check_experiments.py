#!/usr/bin/env python3
"""Checks that every number EXPERIMENTS.md quotes for a figure is printed.

For each experiment section whose "Regenerate:" line names exactly one
`bench_figures <name>`, every number in the section's "Measured:" bullet
must appear in tests/golden/<name>.stdout at the precision quoted: a
quote "4.23" matches a printed number that rounds (half up) to 4.23, and
"1898" one that rounds to 1898.  The ablation bullets
("* `bench_figures <name>` — ...") are checked the same way.

Skipped, because they are not figures the bench prints: text in
backticks, numbers written "~N" (approximations derived from printed
ones), section references "§N.N", and the verdict after a bullet's ✅.

Usage: tools/check_experiments.py [--root DIR]     (exit 1 on a mismatch)
"""
import argparse
import decimal
import pathlib
import re
import sys

NUMBER = re.compile(r"\d+(?:\.\d+)?")
# Not quotes: "~27 %", "Fig1", "§3.3".
QUOTE = re.compile(r"(?<![~§\w])(?<!\d\.)\d+(?:\.\d+)?")
FIGURE = re.compile(r"`bench_figures (\w+)`")


def bullets(lines):
    """Yields (heading, text) for each top-level "* " bullet, continuation
    lines joined; a bullet ends at a blank line or the next bullet."""
    heading, text = "", None
    for line in lines + [""]:
        if text is not None and (not line.strip() or line.startswith(("* ", "#"))):
            yield heading, text
            text = None
        if line.startswith("#"):
            heading = line.lstrip("# ").strip()
        elif line.startswith("* "):
            text = line[2:]
        elif text is not None:
            text += " " + line.strip()


def quoted_numbers(text):
    text = re.sub(r"`[^`]*`", "", text.split("✅")[0])
    return QUOTE.findall(text)


def printed(golden, quote):
    places = len(quote.split(".")[1]) if "." in quote else 0
    exp = decimal.Decimal(1).scaleb(-places)
    want = decimal.Decimal(quote)
    return any(
        decimal.Decimal(n).quantize(exp, rounding=decimal.ROUND_HALF_UP) == want
        for n in NUMBER.findall(golden)
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent)
    root = pathlib.Path(ap.parse_args().root)
    lines = (root / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines()

    checks = []  # (heading, figure name, bullet text)
    figure = {}  # heading -> the figure its Regenerate line names
    for heading, text in bullets(lines):
        if text.startswith("**Regenerate:**"):
            names = FIGURE.findall(text)
            if len(names) == 1:
                figure[heading] = names[0]
        elif text.startswith("**Measured") and heading in figure:
            checks.append((heading, figure[heading], text))
        elif m := FIGURE.match(text):
            checks.append((heading, m.group(1), text[m.end():]))

    failures, count = [], 0
    for heading, name, text in checks:
        path = root / "tests" / "golden" / f"{name}.stdout"
        if not path.is_file():
            failures.append(f"{heading}: no golden {path.relative_to(root)}")
            continue
        golden = path.read_text(encoding="utf-8")
        for quote in quoted_numbers(text):
            count += 1
            if not printed(golden, quote):
                failures.append(f"{heading}: {quote} is not printed by `bench_figures {name}`")
    if count == 0:
        failures.append("no quoted numbers found; is the EXPERIMENTS.md layout unchanged?")
    for f in failures:
        print(f"check_experiments: {f}", file=sys.stderr)
    print(f"check_experiments: {count} quoted numbers in {len(checks)} bullets, "
          f"{len(failures)} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

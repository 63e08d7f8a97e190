"""Prompt construction from the bundled template files.

The templates live under ``dpsynth/templates`` and are kept byte-for-byte
stable (golden-file tested), quirks included: the class list spells Business
as "Bussiness" and the classification closing line says "follwoing". Code
substitutes only the ###<DEMOS>###, ###<NUMBER>### and ###<NEW SAMPLE>###
slots.
"""
from __future__ import annotations

import re
from importlib import resources

from ..corpus import LABELS, ClassLabel, NewsRecord

DEMOS_SLOT = "###<DEMOS>###"
NUMBER_SLOT = "###<NUMBER>###"
QUERY_SLOT = "###<NEW SAMPLE>###"

# Label spellings used inside prompts; the Business variant matches the
# template's class list so generated data and parsing stay consistent.
PROMPT_LABEL = {
    ClassLabel.WORLD: "World",
    ClassLabel.SPORTS: "Sports",
    ClassLabel.BUSINESS: "Bussiness",
    ClassLabel.SCITECH: "Sci/Tech",
}

# A template's demonstrations header line and slot, removed together when
# there are no demonstrations: a header with nothing under it is malformed.
_DEMO_SECTION = re.compile(r"^.*\n\n" + re.escape(DEMOS_SLOT) + r"\n\n", re.MULTILINE)

CLASSIFICATION_HEAD = "You are a helpful assistant."

# Read once, at import. A file's trailing newline is not part of its prompt.
GENERATION_TEMPLATE, CLASSIFICATION_TEMPLATE = (
    (resources.files("dpsynth") / "templates" / name).read_text(encoding="utf-8").rstrip("\n")
    for name in ("generation.txt", "classification.txt"))


def render_demo(record: NewsRecord) -> str:
    return (
        f"Title: {record.title}\n"
        f"Description: {record.description}\n"
        f'Class Label: "{PROMPT_LABEL[record.label]}"'
    )


def render_demo_block(demos: list[NewsRecord] | tuple[NewsRecord, ...]) -> str:
    return "\n\n".join(render_demo(d) for d in demos)


def _fill_demos(template: str, demos: list[NewsRecord]) -> str:
    """``template`` with its demos slot filled, or its demos section gone if none."""
    return (template.replace(DEMOS_SLOT, render_demo_block(demos)) if demos
            else _DEMO_SECTION.sub("", template))


def build_generation_prompt(demos, n: int) -> str:
    """Instantiate the generation template with demos and a record count.

    When four or more demos are supplied they must cover all four classes
    (ValueError otherwise); smaller demo sets are passed through as
    given.
    """
    if n < 1:
        raise ValueError("record count must be >= 1")
    demos = list(demos)
    if len(demos) >= 4:
        present = {d.label for d in demos}
        missing = [label.value for label in LABELS if label not in present]
        if missing:
            raise ValueError(f"no demonstration for: {', '.join(missing)}")
    return _fill_demos(GENERATION_TEMPLATE, demos).replace(NUMBER_SLOT, str(n))


def build_classification_prompt(demos, query: NewsRecord) -> str:
    """Instantiate the classification template for one query record."""
    prompt = _fill_demos(CLASSIFICATION_TEMPLATE, list(demos))
    query_text = f"Title: {query.title}\nDescription: {query.description}"
    return prompt.replace(QUERY_SLOT, query_text)

"""The CLI's help screens, laid out as click 8 lays them out.

``cli`` imports this module only to print a help screen.
"""

import shutil
from textwrap import fill


def screen(usage: str, doc: str, options: dict, width: int | None, commands=None) -> str:
    """A help screen ``width`` columns wide (by default the terminal's width
    less 2, from 50 up to 78)."""
    if width is None:
        width = max(min(shutil.get_terminal_size().columns, 80) - 2, 50)

    def columns(rows: list[tuple[str, str]]) -> list[str]:
        """Terms, each with its text wrapped to its right."""
        col = min(max(len(term) for term, _ in rows), 30) + 2
        lines = []
        for term, text in rows:
            first, *more = fill(text, max(width - col - 2, 10)).split("\n")
            if len(term) <= col - 2:
                lines.append(f"  {term:<{col}}{first}")
            else:
                lines += [f"  {term}", " " * (col + 2) + first]
            lines += [" " * (col + 2) + line for line in more]
        return lines

    rows = []
    for flag, (kind, default, text) in options.items():
        extra = [kind[1]] if kind and kind[1] else []
        extra += ["required"] if default is None else []
        rows.append((f"{flag} {kind[0]}" if kind else flag,
                     f"{text}  [{'; '.join(extra)}]" if extra else text))
    lines = [f"Usage: {usage}", ""]
    lines += [fill(" ".join(paragraph.split()), width, initial_indent="  ", subsequent_indent="  ")
              + "\n" for paragraph in doc.split("\n\n")]
    lines += ["Options:", *columns(rows)]
    if commands:
        limit = width - 6 - max(map(len, commands))
        lines += ["", "Commands:", *columns([(name, _short(command.__doc__, limit))
                                             for name, (command, _) in commands.items()])]
    return "\n".join(lines) + "\n"


def _short(doc: str, limit: int) -> str:
    """The first paragraph of ``doc`` on one line, cut after a word with
    "..." to at most ``limit`` characters if longer."""
    text = " ".join(doc.partition("\n\n")[0].split())
    return text if len(text) <= limit else text[: limit - 2].rpartition(" ")[0] + "..."

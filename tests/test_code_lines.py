import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

OLD = '''"""A module docstring."""

# A comment.
x = 1
'''

NEW = '''"""A module docstring."""

x = 1


def f():
    """A function docstring."""
    return x
'''


def test_count_skips_docstrings_comments_and_blank_lines():
    assert code_lines.count(OLD) == (1, 4)
    assert code_lines.count(NEW) == (3, 8)


def test_delta_of_two_texts_per_file_and_in_total():
    rows = code_lines.delta(
        {"kept.py": OLD, "gone.py": OLD}, {"kept.py": NEW, "new.py": NEW}
    )
    assert rows == [
        ("gone.py", 1, 0, 4, 0),
        ("kept.py", 1, 3, 4, 8),
        ("new.py", 0, 3, 0, 8),
        ("total", 2, 6, 8, 16),
    ]

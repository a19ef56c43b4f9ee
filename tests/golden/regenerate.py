"""Regenerate the golden CSVs pinned by ``test_golden_regression.py``.

Run from the repository root after a *deliberate* change to the physics
or policies (never to paper over an unexplained diff)::

    PYTHONPATH=src python tests/golden/regenerate.py

Review the resulting ``git diff`` before committing.
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.test_golden_regression import (  # noqa: E402
    FIG4_RECIPE,
    GOLDEN_DIR,
    TABLE1_COLUMNS,
    golden_rows,
    timeline_golden_rows,
)

from repro.experiments import run_fig4, run_table1  # noqa: E402


def main() -> None:
    fig4 = run_fig4(**FIG4_RECIPE)
    (GOLDEN_DIR / "fig4_short.csv").write_text("\n".join(golden_rows(fig4)) + "\n")
    print(f"wrote {GOLDEN_DIR / 'fig4_short.csv'}")

    table1 = run_table1(with_spice=False)
    (GOLDEN_DIR / "table1_model.csv").write_text(
        "\n".join(golden_rows(table1, TABLE1_COLUMNS)) + "\n"
    )
    print(f"wrote {GOLDEN_DIR / 'table1_model.csv'}")

    (GOLDEN_DIR / "timeline_fused.csv").write_text(
        "\n".join(timeline_golden_rows()) + "\n"
    )
    print(f"wrote {GOLDEN_DIR / 'timeline_fused.csv'}")


if __name__ == "__main__":
    main()

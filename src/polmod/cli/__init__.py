"""Command-line front end: expression parsing, job running, verification."""

# verify's fixture selectors and their files, in the order `all` runs them;
# here so that the argument parser can list them without importing verify
SELECTOR_FILES = {
    "examples:fast": ["examples_fast.json"],
    "exceptions": ["exceptions_table.json"],
    "homog": ["homog.json"],
    "table:4": ["frobenius_deg4.json"],
    "table:5": ["frobenius_deg5.json"],
    "hilbert:4": ["hilbert_deg4.json"],
    "hilbert:5": ["hilbert_deg5.json"],
    "experiments": ["experiments.json"],
}

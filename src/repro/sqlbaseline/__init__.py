"""The SQL-based baseline: HTL→SQL translation run on stdlib ``sqlite3``."""

from repro.sqlbaseline.system import SQLRetrievalSystem, Type2SQLSystem
from repro.sqlbaseline.translate import SQLTranslator, Translation
from repro.sqlbaseline.translate_type2 import Type2SQLTranslator

__all__ = [
    "SQLRetrievalSystem",
    "Type2SQLSystem",
    "SQLTranslator",
    "Type2SQLTranslator",
    "Translation",
]

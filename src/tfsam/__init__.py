"""Typed feature structure grammars: type hierarchy, compiler, abstract
machine and chart parser."""

from .compiler import (CodeArea, CompileError, compile_grammar, compile_program,
                       compile_query, disassemble)
from .grammar import Grammar, GrammarError, load_grammar, load_hierarchy_only
from .machine import MachineError, MachineState, RegSnapshot, UnifyFailure
from .parser import (ChartParser, LimitExceeded, ParseResult, UnknownWordError)
from .scan import SourceError
from .terms import (MRS, BackRef, MostGeneral, Node, TermError, flatten, iso,
                    iso_roots, most_general_term, parse_mrs, parse_term,
                    print_mrs, print_term, well_typed_check)
from .typesys import (BOT, SpecError, TypeHierarchy, UnifyPlan, load_hierarchy,
                      parse_type_spec, validate)

__version__ = "0.1.0"

__all__ = [
    "BOT", "BackRef", "ChartParser", "CodeArea", "CompileError", "Grammar",
    "GrammarError", "LimitExceeded", "MRS", "MachineError", "MachineState",
    "MostGeneral", "Node", "ParseResult", "RegSnapshot", "SourceError",
    "SpecError", "TermError", "TypeHierarchy", "UnifyFailure", "UnifyPlan",
    "UnknownWordError", "compile_grammar", "compile_program", "compile_query",
    "disassemble", "flatten", "iso", "iso_roots", "load_grammar",
    "load_hierarchy", "load_hierarchy_only", "most_general_term",
    "parse_mrs", "parse_term", "parse_type_spec", "print_mrs", "print_term",
    "validate", "well_typed_check",
]

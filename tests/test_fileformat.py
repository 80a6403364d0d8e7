"""Decode fuzzing: a mutated file gives a set or a MofsError, nothing else."""

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mofs
from mofs.fileformat import ParseError, decode, encode

VALID_FILES = [
    encode(mofs.construct_federer(mofs.hadamard(4))),  # 9 x F(4;2)
    encode(mofs.construct_prime_power(3, 1)),  # 2 x F(3;1)
]

BAD_TOKENS = ["99999999999999999999999", "1.5", "-1", "0", "x", ""]
HEADER_VALUES = ["0", "1", "2", "3", "9", "1000000000000", "99999999999999999999999"]

index = st.integers(min_value=0, max_value=10**6)
mutation = st.one_of(
    st.tuples(st.just("token"), index, index, st.sampled_from(BAD_TOKENS)),
    st.tuples(st.just("delete"), index),
    st.tuples(st.just("duplicate"), index),
    st.tuples(
        st.just("header"),
        st.sampled_from(["m", "lambda", "count"]),
        st.sampled_from(HEADER_VALUES + BAD_TOKENS),
    ),
)


def mutate(text, mutations):
    lines = text.split("\n")
    for op, *args in mutations:
        if op == "token":
            i, j, token = args
            i %= len(lines)
            tokens = lines[i].split(" ")
            tokens[j % len(tokens)] = token
            lines[i] = " ".join(tokens)
        elif op == "delete":
            del lines[args[0] % len(lines)]
        elif op == "duplicate":
            i = args[0] % len(lines)
            lines.insert(i, lines[i])
        else:
            field, value = args
            lines[0] = re.sub(rf"\b{field}=\S*", f"{field}={value}", lines[0])
        if not lines:
            lines = [""]
    return "\n".join(lines)


class TestDecodeFuzz:
    @given(
        st.sampled_from(VALID_FILES),
        st.lists(mutation, min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_file_raises_only_mofs_errors(self, text, mutations):
        try:
            mset = decode(mutate(text, mutations))
        except mofs.MofsError:
            return
        assert isinstance(mset, mofs.MofsSet)

    def test_huge_header_fails_fast(self):
        text = "MOFS m=1000000000000 lambda=1000000000000 count=1000000000000\n"
        start = time.perf_counter()
        with pytest.raises(ParseError):
            decode(text + "1 2\n2 1\n")
        assert time.perf_counter() - start < 1

import pytest

from fillflow.units import parse_utc


class TestParseUtc:
    @pytest.mark.parametrize("value", [
        "١٧٠٩",  # Arabic-Indic digits: str.isdigit() is true for them
        " 1709 ",
        1.9,
    ], ids=["non-ascii-digits", "surrounding-spaces", "fractional-float"])
    def test_rejected(self, value):
        with pytest.raises(ValueError):
            parse_utc(value)

    @pytest.mark.parametrize("value, expected", [
        ("2024-07-21", 1721520000),
        ("2024-07-21T17:46:00Z", 1721583960),
        ("2024-07-21T17:46:00+00:00", 1721583960),
        ("1709640000", 1709640000),
        (1.0, 1),
    ], ids=["date", "zulu", "utc-offset", "epoch-digits", "integral-float"])
    def test_accepted(self, value, expected):
        assert parse_utc(value) == expected

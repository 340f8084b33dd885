//! Golden tests for the `plcheck` CLI surface: the `--json` output schema
//! (key sets, code/severity formats, the `--ranges` extension), the
//! `--codes` table, and exit statuses. Downstream tooling greps and parses
//! this output; schema drift must be a deliberate, test-visible change.

#![expect(
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_macros,
    reason = "the library gate exempts test code: a failed assertion is how a test fails"
)]

use std::collections::BTreeSet;
use std::process::{Command, Output};

fn plcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plcheck"))
        .args(args)
        .output()
        .expect("plcheck runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

// ---- a minimal JSON model, enough to pin the schema ------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
        v
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn eat(&mut self, b: u8) {
        assert_eq!(self.peek(), b, "at byte {}", self.pos);
        self.pos += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.pos
        );
        self.pos += word.len();
        v
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let Json::Str(k) = self.string() else {
                            unreachable!()
                        };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => self.string(),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Json {
        self.eat(b'"');
        let mut s = String::new();
        loop {
            assert!(self.pos < self.bytes.len(), "unterminated string");
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Json::Str(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.bytes[self.pos];
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .expect("hex escape");
                            let code = u32::from_str_radix(hex, 16).expect("hex escape");
                            s.push(char::from_u32(code).expect("BMP scalar"));
                            self.pos += 4;
                        }
                        other => panic!("unsupported escape \\{}", other as char),
                    }
                }
                _ => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).expect("utf-8");
                    let c = rest.chars().next().expect("char");
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf-8 number");
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number `{text}`")),
        )
    }
}

// ---- schema pins -----------------------------------------------------------

fn assert_diagnostic_schema(d: &Json) {
    assert_eq!(
        d.keys(),
        ["code", "severity", "location", "message", "help"],
        "diagnostic key set/order changed"
    );
    let code = d.get("code").expect("code").as_str();
    assert!(
        code.len() == 5 && code.starts_with("PL") && code[2..].bytes().all(|b| b.is_ascii_digit()),
        "bad code format `{code}`"
    );
    let severity = d.get("severity").expect("severity").as_str();
    assert!(
        ["info", "warning", "error"].contains(&severity),
        "bad severity `{severity}`"
    );
    for key in ["location", "message", "help"] {
        assert!(
            matches!(d.get(key), Some(Json::Str(_))),
            "{key} must be a string"
        );
    }
}

#[test]
fn json_output_schema_is_pinned() {
    let out = plcheck(&["--json", "--ranges", "Mnist-A", "AlexNet"]);
    assert!(out.status.success());
    let doc = Parser::parse(stdout(&out).trim());
    let nets = doc.as_arr();
    assert_eq!(nets.len(), 2);

    for (net, name, value_domain) in [(&nets[0], "Mnist-A", true), (&nets[1], "AlexNet", false)] {
        assert_eq!(
            net.keys(),
            ["network", "ok", "diagnostics", "ranges"],
            "per-network key set/order changed"
        );
        assert_eq!(net.get("network").expect("network").as_str(), name);
        assert_eq!(net.get("ok"), Some(&Json::Bool(true)));
        for d in net.get("diagnostics").expect("diagnostics").as_arr() {
            assert_diagnostic_schema(d);
        }

        let ranges = net.get("ranges").expect("--ranges adds a ranges field");
        assert_eq!(ranges.keys(), ["input", "value_domain", "stages"]);
        assert_eq!(
            ranges.get("value_domain"),
            Some(&Json::Bool(value_domain)),
            "{name}"
        );
        let input = ranges.get("input").expect("input");
        assert_eq!(input.keys(), ["lo", "hi"]);
        for stage in ranges.get("stages").expect("stages").as_arr() {
            assert_eq!(
                stage.keys(),
                [
                    "index",
                    "name",
                    "activation",
                    "delta",
                    "dweight_mag",
                    "dbias_mag",
                    "acc_bits_geometry",
                    "acc_bits_data"
                ],
                "stage key set/order changed"
            );
            for key in ["activation", "delta"] {
                match stage.get(key).expect(key) {
                    Json::Null => assert!(!value_domain, "{name}: bounded nets report intervals"),
                    iv @ Json::Obj(_) => {
                        assert_eq!(iv.keys(), ["lo", "hi"]);
                        assert!(value_domain, "{name}: geometry-only nets report null");
                    }
                    other => panic!("{key} must be null or an interval, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn json_without_ranges_has_no_ranges_field() {
    let out = plcheck(&["--json", "Mnist-A"]);
    assert!(out.status.success());
    let doc = Parser::parse(stdout(&out).trim());
    assert_eq!(doc.as_arr()[0].keys(), ["network", "ok", "diagnostics"]);
}

#[test]
fn under_width_run_reports_range_codes_and_fails() {
    let out = plcheck(&["--json", "--data-bits", "8", "--acc-bits", "20", "C-4"]);
    assert!(
        !out.status.success(),
        "under-width config must exit non-zero"
    );
    let doc = Parser::parse(stdout(&out).trim());
    let net = &doc.as_arr()[0];
    assert_eq!(net.get("ok"), Some(&Json::Bool(false)));
    let codes: BTreeSet<String> = net
        .get("diagnostics")
        .expect("diagnostics")
        .as_arr()
        .iter()
        .map(|d| d.get("code").expect("code").as_str().to_string())
        .collect();
    assert!(codes.contains("PL042"), "{codes:?}");
}

#[test]
fn thirty_two_bit_data_maps_and_passes() {
    // 32 bits is the spike driver's limit: no bit-width or config error,
    // so the mapping and range passes run (an 80-bit accumulator holds
    // every dot product) and the run succeeds.
    let out = plcheck(&["--json", "--data-bits", "32", "--acc-bits", "80", "Mnist-A"]);
    assert!(out.status.success(), "{}", stdout(&out));
    let doc = Parser::parse(stdout(&out).trim());
    let net = &doc.as_arr()[0];
    assert_eq!(net.get("ok"), Some(&Json::Bool(true)));
    let errors = net
        .get("diagnostics")
        .expect("diagnostics")
        .as_arr()
        .iter()
        .filter(|d| d.get("severity").expect("severity").as_str() == "error");
    assert_eq!(errors.count(), 0);
    // Under the default 48-bit accumulator the range pass did run.
    let out = plcheck(&["--json", "--data-bits", "32", "Mnist-A"]);
    assert!(stdout(&out).contains("\"PL042\""), "{}", stdout(&out));
    assert!(!stdout(&out).contains("\"PL050\""), "{}", stdout(&out));
}

#[test]
fn codes_table_matches_the_library() {
    let out = plcheck(&["--codes"]);
    assert!(out.status.success());
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), pipelayer_check::diag::CODE_TABLE.len());
    for (line, (code, what)) in lines.iter().zip(pipelayer_check::diag::CODE_TABLE) {
        assert_eq!(*line, format!("{code}  {what}"));
    }
    let shape_codes: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .filter(|c| c.starts_with("PL00"))
        .collect();
    assert_eq!(
        shape_codes,
        ["PL001", "PL002", "PL003", "PL004", "PL005", "PL006", "PL007", "PL008"]
    );
    assert!(lines.contains(&"PL007  shape, weight or MAC count overflows usize"));
    assert!(lines.contains(&"PL008  conv or pool layer follows an inner-product layer"));
}

#[test]
fn usage_errors_exit_2() {
    let out = plcheck(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = plcheck(&["no-such-network"]);
    assert_eq!(out.status.code(), Some(2));
}

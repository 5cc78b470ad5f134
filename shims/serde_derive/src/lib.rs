//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! The real `serde_derive` is built on `syn`/`quote`; neither is available
//! offline, so this is a small hand-rolled parser over `proc_macro` token
//! trees. It supports exactly the shapes this workspace derives on:
//!
//! * structs with named fields (per-field `#[serde(default)]` and
//!   `#[serde(skip_serializing_if = "path")]` honored);
//! * tuple structs (including `#[serde(transparent)]` newtypes);
//! * enums with unit, tuple, and struct variants (externally tagged);
//! * generic items (type, const, and lifetime parameters): every type
//!   parameter is bounded by `::serde::Serialize` / `::serde::Deserialize`
//!   in the generated impl, on top of any bounds declared on the item.
//!
//! `Serialize` renders a `serde::Value` tree. `Deserialize` is one
//! implementation per type, written against the pull reader
//! `serde::de::Read`: objects take their keys in any order, skip unknown
//! keys, keep the first of duplicate keys, and default absent
//! `#[serde(default)]` fields.
//!
//! Where-clauses remain unsupported and the macro panics with a clear
//! message if it meets a shape it cannot handle, so failures are loud,
//! not silent.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Item {
    name: String,
    generics: Vec<GenParam>,
    transparent: bool,
    shape: Shape,
}

/// One generic parameter of the deriving item.
struct GenParam {
    /// Name as it appears in the type path (`Sz`, `D`, `'a`).
    name: String,
    /// Declaration text minus any default (`Sz: Demand`, `const D: usize`).
    decl: String,
    /// Type parameters get the serde trait bound; const/lifetime ones don't.
    is_type: bool,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

/// One named field plus the serde attributes this shim honors.
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    /// `#[serde(default)]`: absent keys deserialize to `Default::default()`.
    default: bool,
    /// `#[serde(skip_serializing_if = "path")]`: the entry is omitted when
    /// `path(&self.field)` is true.
    skip_if: Option<String>,
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Derive `serde::Serialize` (value-tree based).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim: generated Serialize impl did not parse")
}

/// Derive `serde::Deserialize` (over the `serde::de::Read` token reader).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim: generated Deserialize impl did not parse")
}

// ---------------------------------------------------------------- parsing

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn ident_of(t: Option<&TokenTree>) -> Option<String> {
    match t {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

/// Serde attributes recognized by this shim, at item or field level.
#[derive(Default)]
struct Attrs {
    transparent: bool,
    default: bool,
    skip_if: Option<String>,
}

/// Fold one `#[serde(...)]` bracket group into `attrs`; other attributes
/// are ignored.
fn parse_serde_attr(group: &proc_macro::Group, attrs: &mut Attrs) {
    let toks: Vec<TokenTree> = group.stream().into_iter().collect();
    if ident_of(toks.first()).as_deref() != Some("serde") {
        return;
    }
    let inner: Vec<TokenTree> = match toks.get(1) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            g.stream().into_iter().collect()
        }
        _ => return,
    };
    let mut i = 0;
    while i < inner.len() {
        match ident_of(inner.get(i)).as_deref() {
            Some("transparent") => attrs.transparent = true,
            Some("default") => attrs.default = true,
            Some("skip_serializing_if") if is_punct(inner.get(i + 1), '=') => {
                if let Some(TokenTree::Literal(lit)) = inner.get(i + 2) {
                    let raw = lit.to_string();
                    attrs.skip_if = Some(raw.trim_matches('"').to_string());
                    i += 2;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Skip attributes starting at `i`; returns the new index and the serde
/// attributes seen across them.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> (usize, Attrs) {
    let mut attrs = Attrs::default();
    while is_punct(tokens.get(i), '#') {
        match tokens.get(i + 1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                parse_serde_attr(g, &mut attrs);
                i += 2;
            }
            _ => break,
        }
    }
    (i, attrs)
}

/// Skip a visibility modifier (`pub`, `pub(crate)`, ...) at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if ident_of(tokens.get(i)).as_deref() == Some("pub") {
        i += 1;
        if let Some(TokenTree::Group(g)) = tokens.get(i) {
            if g.delimiter() == Delimiter::Parenthesis {
                i += 1;
            }
        }
    }
    i
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (mut i, item_attrs) = skip_attrs(&tokens, 0);
    let transparent = item_attrs.transparent;
    i = skip_vis(&tokens, i);
    let kw = ident_of(tokens.get(i)).unwrap_or_else(|| {
        panic!(
            "serde shim derive: expected `struct` or `enum`, got {:?}",
            tokens.get(i)
        )
    });
    i += 1;
    let name = ident_of(tokens.get(i))
        .unwrap_or_else(|| panic!("serde shim derive: expected type name after `{kw}`"));
    i += 1;
    let mut generics = Vec::new();
    if is_punct(tokens.get(i), '<') {
        i += 1;
        let mut depth = 1i32;
        let mut seg: Vec<TokenTree> = Vec::new();
        loop {
            let t = tokens
                .get(i)
                .unwrap_or_else(|| panic!("serde shim derive: unclosed generics on `{name}`"))
                .clone();
            i += 1;
            match &t {
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    seg.push(t);
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    if depth == 0 {
                        if !seg.is_empty() {
                            generics.push(parse_gen_param(&name, &seg));
                        }
                        break;
                    }
                    seg.push(t);
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                    if !seg.is_empty() {
                        generics.push(parse_gen_param(&name, &seg));
                    }
                    seg.clear();
                }
                _ => seg.push(t),
            }
        }
    }
    if ident_of(tokens.get(i)).as_deref() == Some("where") {
        panic!("serde shim derive: where-clause on `{name}` is not supported");
    }
    let shape = match kw.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Shape::Unit,
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: unsupported enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: expected `struct` or `enum`, got `{other}`"),
    };
    Item {
        name,
        generics,
        transparent,
        shape,
    }
}

/// Render a token slice back to source text. Tokens are space-joined except
/// after a lifetime tick, so `'a` stays one token of text.
fn tokens_text(tokens: &[TokenTree]) -> String {
    let mut out = String::new();
    for t in tokens {
        out.push_str(&t.to_string());
        if !matches!(t, TokenTree::Punct(p) if p.as_char() == '\'') {
            out.push(' ');
        }
    }
    out.trim_end().to_string()
}

/// Parse one comma-separated generic parameter (`Sz`, `Sz: Demand`,
/// `const D: usize`, `'a`), dropping any `= default`.
fn parse_gen_param(owner: &str, seg: &[TokenTree]) -> GenParam {
    let mut depth = 0i32;
    let mut cut = seg.len();
    for (j, t) in seg.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == '=' && depth == 0 => {
                cut = j;
                break;
            }
            _ => {}
        }
    }
    let seg = &seg[..cut];
    let decl = tokens_text(seg);
    match seg.first() {
        Some(TokenTree::Punct(p)) if p.as_char() == '\'' => GenParam {
            name: tokens_text(&seg[..2.min(seg.len())]),
            decl,
            is_type: false,
        },
        Some(TokenTree::Ident(id)) if id.to_string() == "const" => GenParam {
            name: ident_of(seg.get(1))
                .unwrap_or_else(|| panic!("serde shim derive: bad const parameter on `{owner}`")),
            decl,
            is_type: false,
        },
        Some(TokenTree::Ident(id)) => GenParam {
            name: id.to_string(),
            decl,
            is_type: true,
        },
        other => panic!("serde shim derive: bad generic parameter on `{owner}`: {other:?}"),
    }
}

/// `impl<...>` and `Name<...>` generic argument text for the generated
/// impl, bounding every type parameter by `bound`.
fn generics_strings(item: &Item, bound: &str) -> (String, String) {
    if item.generics.is_empty() {
        return (String::new(), String::new());
    }
    let impl_params: Vec<String> = item
        .generics
        .iter()
        .map(|p| {
            if !p.is_type {
                p.decl.clone()
            } else if p.decl.contains(':') {
                format!("{} + {bound}", p.decl)
            } else {
                format!("{}: {bound}", p.decl)
            }
        })
        .collect();
    let ty_params: Vec<String> = item.generics.iter().map(|p| p.name.clone()).collect();
    (
        format!("<{}>", impl_params.join(", ")),
        format!("<{}>", ty_params.join(", ")),
    )
}

/// Fields of a named-field body (names + serde attrs), in declaration
/// order.
fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = ts.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs;
        (i, attrs) = skip_attrs(&tokens, i);
        i = skip_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let field = ident_of(tokens.get(i)).unwrap_or_else(|| {
            panic!(
                "serde shim derive: expected field name, got {:?}",
                tokens[i]
            )
        });
        i += 1;
        assert!(
            is_punct(tokens.get(i), ':'),
            "serde shim derive: expected `:` after field `{field}`"
        );
        i += 1;
        // Consume the type: everything until a comma at angle-bracket depth 0.
        // Parenthesised/bracketed sub-parts are single Group tokens, so only
        // `<`/`>` need explicit depth tracking.
        let ty_start = i;
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        let ty = tokens_text(&tokens[ty_start..i]);
        i += 1; // past the comma (or end)
        fields.push(Field {
            name: field,
            ty,
            default: attrs.default,
            skip_if: attrs.skip_if,
        });
    }
    fields
}

/// Number of fields in a tuple-struct/tuple-variant body.
fn count_tuple_fields(ts: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = ts.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    for t in &tokens {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => count += 1,
            _ => {}
        }
    }
    // A trailing comma does not add a field.
    if is_punct(tokens.last(), ',') {
        count -= 1;
    }
    count
}

fn parse_variants(ts: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = ts.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        (i, _) = skip_attrs(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_of(tokens.get(i)).unwrap_or_else(|| {
            panic!(
                "serde shim derive: expected variant name, got {:?}",
                tokens[i]
            )
        });
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(g.stream()))
            }
            _ => VariantShape::Unit,
        };
        if is_punct(tokens.get(i), ',') {
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------- codegen

/// `("name".to_string(), <expr>)` map-entry expression.
fn map_entry(key: &str, value_expr: &str) -> String {
    format!("(::std::string::String::from(\"{key}\"), {value_expr})")
}

/// Body reading an object into `ctor { fields }`: keys in any order,
/// unknown keys skipped, the first of duplicate keys kept, absent
/// `#[serde(default)]` fields defaulted and other absent fields an error.
/// Evaluates to `Result<Self, Error>`.
fn named_fields_body(owner: &str, ctor: &str, fields: &[Field]) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut inits = Vec::new();
    for (i, f) in fields.iter().enumerate() {
        let (n, ty) = (&f.name, &f.ty);
        decls.push_str(&format!(
            "let mut __f{i}: ::std::option::Option<{ty}> = ::std::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "\"{n}\" if __f{i}.is_none() => {{ __f{i} = ::std::option::Option::Some(\
             ::serde::Deserialize::deserialize(__r)?); }}\n"
        ));
        inits.push(if f.default {
            format!("{n}: __f{i}.unwrap_or_default()")
        } else {
            format!(
                "{n}: match __f{i} {{ ::std::option::Option::Some(__x) => __x, \
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"missing field `{n}` in {owner}\")) }}"
            )
        });
    }
    format!(
        "{{\n\
         let __k = ::serde::de::Read::peek(__r)?;\n\
         if __k != ::serde::de::Kind::Map {{\n\
         return ::std::result::Result::Err(::serde::de::mismatch(\"object for {owner}\", __k));\n\
         }}\n\
         ::serde::de::Read::map_begin(__r)?;\n\
         {decls}\
         while let ::std::option::Option::Some(__key) = ::serde::de::Read::map_next_key(__r)? {{\n\
         match &*__key {{\n\
         {arms}\
         _ => ::serde::de::Read::skip(__r)?,\n\
         }}\n\
         }}\n\
         ::std::result::Result::Ok({ctor} {{ {} }})\n\
         }}",
        inits.join(", ")
    )
}

/// Body reading an array of exactly `n` elements into `ctor(..)`.
fn tuple_body(owner: &str, ctor: &str, n: usize) -> String {
    let decls: String = (0..n)
        .map(|i| format!("let mut __f{i} = ::std::option::Option::None;\n"))
        .collect();
    let reads: String = (0..n)
        .map(|i| {
            format!(
                "if __i == {i} {{ __f{i} = ::std::option::Option::Some(\
                 ::serde::Deserialize::deserialize(__r)?); }}\n"
            )
        })
        .collect();
    let inits: Vec<String> = (0..n)
        .map(|i| format!("__f{i}.expect(\"read_tuple reads every element\")"))
        .collect();
    format!(
        "{{\n{decls}\
         ::serde::read_tuple(__r, {n}, \"{owner}\", |__r, __i| {{\n{reads}\
         ::std::result::Result::Ok(()) }})?;\n\
         ::std::result::Result::Ok({ctor}({}))\n\
         }}",
        inits.join(", ")
    )
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) if item.transparent && fields.len() == 1 => {
            format!("::serde::Serialize::to_value(&self.{})", fields[0].name)
        }
        Shape::Tuple(1) if item.transparent => "::serde::Serialize::to_value(&self.0)".to_string(),
        Shape::Named(fields) if fields.iter().any(|f| f.skip_if.is_some()) => {
            let mut pushes = String::new();
            for f in fields {
                let n = &f.name;
                let entry = map_entry(n, &format!("::serde::Serialize::to_value(&self.{n})"));
                match &f.skip_if {
                    Some(pred) => pushes
                        .push_str(&format!("if !{pred}(&self.{n}) {{ __m.push({entry}); }}\n")),
                    None => pushes.push_str(&format!("__m.push({entry});\n")),
                }
            }
            format!(
                "{{\nlet mut __m: ::std::vec::Vec<(::std::string::String, ::serde::Value)> = \
                 ::std::vec::Vec::new();\n{pushes}::serde::Value::Map(__m)\n}}"
            )
        }
        Shape::Named(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    map_entry(
                        &f.name,
                        &format!("::serde::Serialize::to_value(&self.{})", f.name),
                    )
                })
                .collect();
            format!("::serde::Value::Map(::std::vec![{}])", entries.join(", "))
        }
        Shape::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
        }
        Shape::Unit => format!("::serde::Value::Str(::std::string::String::from(\"{name}\"))"),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.shape {
                    VariantShape::Unit => {
                        arms.push_str(&format!(
                            "{name}::{vn} => ::serde::Value::Str(\
                             ::std::string::String::from(\"{vn}\")),\n"
                        ));
                    }
                    VariantShape::Tuple(1) => {
                        arms.push_str(&format!(
                            "{name}::{vn}(__f0) => ::serde::Value::Map(::std::vec![{}]),\n",
                            map_entry(vn, "::serde::Serialize::to_value(__f0)")
                        ));
                    }
                    VariantShape::Tuple(n) => {
                        let binders: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                        let items: Vec<String> = binders
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{vn}({}) => ::serde::Value::Map(::std::vec![{}]),\n",
                            binders.join(", "),
                            map_entry(
                                vn,
                                &format!("::serde::Value::Seq(::std::vec![{}])", items.join(", "))
                            )
                        ));
                    }
                    VariantShape::Named(fields) => {
                        let entries: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                map_entry(
                                    &f.name,
                                    &format!("::serde::Serialize::to_value({})", f.name),
                                )
                            })
                            .collect();
                        let binders: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {} }} => ::serde::Value::Map(::std::vec![{}]),\n",
                            binders.join(", "),
                            map_entry(
                                vn,
                                &format!(
                                    "::serde::Value::Map(::std::vec![{}])",
                                    entries.join(", ")
                                )
                            )
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}\n}}")
        }
    };
    let (ig, tg) = generics_strings(item, "::serde::Serialize");
    format!(
        "impl{ig} ::serde::Serialize for {name}{tg} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.shape {
        Shape::Named(fields) if item.transparent && fields.len() == 1 => {
            format!(
                "::std::result::Result::Ok({name} {{ {}: ::serde::Deserialize::deserialize(__r)? }})",
                fields[0].name
            )
        }
        Shape::Tuple(1) if item.transparent => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__r)?))")
        }
        Shape::Named(fields) => named_fields_body(name, name, fields),
        Shape::Tuple(n) => tuple_body(name, name, *n),
        Shape::Unit => {
            format!(
                "if ::serde::de::Read::str(__r)? == \"{name}\" {{\n\
                 ::std::result::Result::Ok({name})\n\
                 }} else {{\n\
                 ::std::result::Result::Err(::serde::Error::custom(\"expected \\\"{name}\\\"\"))\n\
                 }}"
            )
        }
        Shape::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut payload_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms
                            .push_str(&format!("\"{vn}\" => ::std::result::Result::Ok({ctor}),\n"));
                    }
                    VariantShape::Tuple(1) => {
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => {ctor}(::serde::Deserialize::deserialize(__r)?),\n"
                        ));
                    }
                    VariantShape::Tuple(n) => {
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __x: ::std::result::Result<Self, ::serde::Error> = {}; __x? }},\n",
                            tuple_body(&ctor, &ctor, *n)
                        ));
                    }
                    VariantShape::Named(fields) => {
                        payload_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __x: ::std::result::Result<Self, ::serde::Error> = {}; __x? }},\n",
                            named_fields_body(&ctor, &ctor, fields)
                        ));
                    }
                }
            }
            let map_arm = if payload_arms.is_empty() {
                format!(
                    "::serde::de::Kind::Map => ::std::result::Result::Err(::serde::Error::custom(\
                     \"expected a {name} variant name, got an object\")),\n"
                )
            } else {
                format!(
                    "::serde::de::Kind::Map => {{\n\
                 ::serde::de::Read::map_begin(__r)?;\n\
                 let __key = match ::serde::de::Read::map_next_key(__r)? {{\n\
                 ::std::option::Option::Some(__key) => __key,\n\
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"expected {name} variant, got an empty object\")),\n\
                 }};\n\
                 let __value = match &*__key {{\n\
                 {payload_arms}\
                 __other => return ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                 }};\n\
                 if ::serde::de::Read::map_next_key(__r)?.is_some() {{\n\
                 return ::std::result::Result::Err(::serde::Error::custom(\
                 \"expected {name} variant, got an object with several keys\"));\n\
                 }}\n\
                 ::std::result::Result::Ok(__value)\n\
                 }},\n"
                )
            };
            format!(
                "match ::serde::de::Read::peek(__r)? {{\n\
                 ::serde::de::Kind::Str => match &*::serde::de::Read::str(__r)? {{\n\
                 {unit_arms}\
                 __other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{}}` of {name}\", __other))),\n\
                 }},\n\
                 {map_arm}\
                 __k => ::std::result::Result::Err(::serde::de::mismatch(\"{name} variant\", __k)),\n\
                 }}"
            )
        }
    };
    let (ig, tg) = generics_strings(item, "::serde::Deserialize");
    format!(
        "impl{ig} ::serde::Deserialize for {name}{tg} {{\n\
         fn deserialize<'__de, __R: ::serde::de::Read<'__de>>(__r: &mut __R) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n\
         {body}\n\
         }}\n\
         }}"
    )
}

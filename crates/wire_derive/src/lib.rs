//! Hand-rolled `#[derive(Wire)]` for `simcore::codec::Wire`.
//!
//! The offline build environment has no `syn`/`quote`, so the item is parsed
//! directly from the [`proc_macro::TokenStream`] and the impl is generated
//! as a string. Supports the shapes the workspace uses: unit/tuple/named
//! structs, enums with unit/newtype/tuple/struct variants, simple type
//! generics (`Foo<T>`), and `#[wire(skip)]` on named fields (absent from
//! the bytes, filled with `Default::default()` on decode). The generated
//! code is the fixed layout itself: fields `put`/`get` in declaration
//! order, enum variants behind their `u32` declaration index.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Wire, attributes(wire))]
pub fn derive_wire(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_wire(&item).parse().expect("generated Wire impl parses")
}

// ---------------------------------------------------------------------------
// item model + parser
// ---------------------------------------------------------------------------

struct Item {
    name: String,
    /// Type parameter names, in declaration order.
    generics: Vec<String>,
    kind: Kind,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

enum Fields {
    Unit,
    /// Number of fields in a tuple struct/variant.
    Tuple(usize),
    Named(Vec<Field>),
}

struct Field {
    name: String,
    skip: bool,
}

struct Variant {
    name: String,
    fields: Fields,
}

/// True when the attribute token group is `#[wire(skip)]`.
fn attr_is_skip(group: &TokenStream) -> bool {
    let mut toks = group.clone().into_iter();
    match (toks.next(), toks.next()) {
        (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args))) => {
            name.to_string() == "wire"
                && args
                    .stream()
                    .into_iter()
                    .any(|t| matches!(&t, TokenTree::Ident(i) if i.to_string() == "skip"))
        }
        _ => false,
    }
}

/// Consumes a leading run of `#[...]` attributes; reports whether any was
/// `#[wire(skip)]`. Returns the first non-attribute token.
fn skip_attrs(toks: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) -> bool {
    let mut skip = false;
    while let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() != '#' {
            break;
        }
        toks.next();
        match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                skip |= attr_is_skip(&g.stream());
            }
            other => panic!("expected attribute body after `#`, found {other:?}"),
        }
    }
    skip
}

/// Consumes `pub` / `pub(...)` if present.
fn skip_vis(toks: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if matches!(toks.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        toks.next();
        if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            toks.next();
        }
    }
}

/// Parses `<...>` generics (opening `<` already consumed), returning the type
/// parameter names. Lifetimes and bounds are tolerated and dropped; the
/// workspace derives none of those on wire types.
fn parse_generics(
    toks: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>,
) -> Vec<String> {
    let mut params = Vec::new();
    let mut depth = 1usize;
    let mut at_param_start = true;
    let mut in_lifetime = false;
    while depth > 0 {
        match toks.next().expect("unterminated generics") {
            TokenTree::Punct(p) => match p.as_char() {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    at_param_start = false;
                }
                ',' if depth == 1 => {
                    at_param_start = true;
                    in_lifetime = false;
                }
                '\'' => in_lifetime = true,
                _ => {}
            },
            TokenTree::Ident(id) => {
                if depth == 1 && at_param_start && !in_lifetime {
                    let s = id.to_string();
                    if s != "const" {
                        params.push(s);
                    }
                    at_param_start = false;
                } else if in_lifetime {
                    in_lifetime = false;
                    at_param_start = false;
                }
            }
            _ => at_param_start = false,
        }
    }
    params
}

/// Counts the fields of a tuple struct/variant body (the `(...)` group).
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut toks = stream.into_iter().peekable();
    let mut count = 0usize;
    let mut angle = 0usize;
    let mut saw_tokens = false;
    let mut prev_dash = false;
    while let Some(t) = toks.next() {
        match &t {
            TokenTree::Punct(p) => {
                match p.as_char() {
                    '<' => angle += 1,
                    // Don't treat the `>` of `->` as closing an angle.
                    '>' if !prev_dash && angle > 0 => angle -= 1,
                    ',' if angle == 0 => {
                        if saw_tokens {
                            count += 1;
                        }
                        saw_tokens = false;
                        prev_dash = false;
                        continue;
                    }
                    _ => {}
                }
                prev_dash = p.as_char() == '-';
            }
            _ => prev_dash = false,
        }
        saw_tokens = true;
        let _ = &mut toks;
    }
    if saw_tokens {
        count += 1;
    }
    count
}

/// Parses the fields of a named struct/variant body (the `{...}` group).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut toks = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        if toks.peek().is_none() {
            break;
        }
        let skip = skip_attrs(&mut toks);
        skip_vis(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected field name, found {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        // Skip the type up to the next top-level comma.
        let mut angle = 0usize;
        let mut prev_dash = false;
        for t in toks.by_ref() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' if !prev_dash && angle > 0 => angle -= 1,
                    ',' if angle == 0 => break,
                    _ => {}
                }
                prev_dash = p.as_char() == '-';
            } else {
                prev_dash = false;
            }
        }
        fields.push(Field { name, skip });
    }
    fields
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut toks = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        if toks.peek().is_none() {
            break;
        }
        skip_attrs(&mut toks);
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("expected variant name, found {other:?}"),
        };
        let fields = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                toks.next();
                Fields::Tuple(n)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let f = parse_named_fields(g.stream());
                toks.next();
                Fields::Named(f)
            }
            _ => Fields::Unit,
        };
        // Skip an explicit discriminant and/or trailing comma.
        for t in toks.by_ref() {
            if matches!(&t, TokenTree::Punct(p) if p.as_char() == ',') {
                break;
            }
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut toks = input.into_iter().peekable();
    skip_attrs(&mut toks);
    skip_vis(&mut toks);
    let kind_kw = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected `struct` or `enum`, found {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("expected item name, found {other:?}"),
    };
    let generics = match toks.peek() {
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            toks.next();
            parse_generics(&mut toks)
        }
        _ => Vec::new(),
    };
    // Tolerate a `where` clause: skip ahead to the body.
    if matches!(toks.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "where") {
        while let Some(t) = toks.peek() {
            match t {
                TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => break,
                TokenTree::Punct(p) if p.as_char() == ';' => break,
                _ => {
                    toks.next();
                }
            }
        }
    }
    let kind = match kind_kw.as_str() {
        "struct" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Struct(Fields::Named(parse_named_fields(g.stream())))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Kind::Struct(Fields::Tuple(count_tuple_fields(g.stream())))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Kind::Struct(Fields::Unit),
            other => panic!("expected struct body, found {other:?}"),
        },
        "enum" => match toks.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Kind::Enum(parse_variants(g.stream()))
            }
            other => panic!("expected enum body, found {other:?}"),
        },
        other => panic!("derive target must be a struct or enum, found `{other}`"),
    };
    Item { name, generics, kind }
}

// ---------------------------------------------------------------------------
// codegen
// ---------------------------------------------------------------------------

const WIRE: &str = "::simcore::codec::Wire";

fn gen_wire(item: &Item) -> String {
    let name = &item.name;
    let (ty_args, impl_generics) = if item.generics.is_empty() {
        (String::new(), String::new())
    } else {
        let bounded: Vec<String> = item.generics.iter().map(|g| format!("{g}: {WIRE}")).collect();
        (format!("<{}>", item.generics.join(", ")), format!("<{}>", bounded.join(", ")))
    };
    let (put, get) = match &item.kind {
        Kind::Struct(fields) => (
            format!("let {} = self;\n{}", pattern(name, fields), put_fields(fields)),
            ctor(name, fields),
        ),
        Kind::Enum(variants) => enum_bodies(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl{impl_generics} {WIRE} for {name}{ty_args} {{\n\
             fn put(&self, __out: &mut ::std::vec::Vec<u8>) {{\n\
                 {put}\
             }}\n\
             fn get(__in: &mut &[u8]) \
                 -> ::core::result::Result<Self, ::simcore::codec::CodecError> {{\n\
                 {get}\n\
             }}\n\
         }}\n"
    )
}

/// Binding name for the `i`-th tuple field.
fn tuple_bind(i: usize) -> String {
    format!("__f{i}")
}

/// A pattern destructuring `path` and binding every encoded field; skipped
/// fields fall under `..`.
fn pattern(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(tuple_bind).collect();
            format!("{path}({})", binds.join(", "))
        }
        Fields::Named(fs) => {
            let binds: String =
                fs.iter().filter(|f| !f.skip).map(|f| format!("{}, ", f.name)).collect();
            format!("{path} {{ {binds}.. }}")
        }
    }
}

/// `put` calls for the bindings [`pattern`] introduced, in field order.
fn put_fields(fields: &Fields) -> String {
    let binds: Vec<String> = match fields {
        Fields::Unit => Vec::new(),
        Fields::Tuple(n) => (0..*n).map(tuple_bind).collect(),
        Fields::Named(fs) => fs.iter().filter(|f| !f.skip).map(|f| f.name.clone()).collect(),
    };
    binds.iter().map(|b| format!("{WIRE}::put({b}, __out);\n")).collect()
}

/// An `Ok(..)` expression building `path` by `get`ting each field in order.
fn ctor(path: &str, fields: &Fields) -> String {
    let get = format!("{WIRE}::get(__in)?");
    let value = match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(n) => format!("{path}({})", vec![get; *n].join(", ")),
        Fields::Named(fs) => {
            let inits: Vec<String> = fs
                .iter()
                .map(|f| {
                    if f.skip {
                        format!("{}: ::core::default::Default::default()", f.name)
                    } else {
                        format!("{}: {get}", f.name)
                    }
                })
                .collect();
            format!("{path} {{ {} }}", inits.join(", "))
        }
    };
    format!("::core::result::Result::Ok({value})")
}

/// The `put` and `get` bodies of an enum: a `u32` declaration index, then
/// the variant's fields.
fn enum_bodies(name: &str, variants: &[Variant]) -> (String, String) {
    let mut put_arms = String::new();
    let mut get_arms = String::new();
    for (idx, v) in variants.iter().enumerate() {
        let path = format!("{name}::{}", v.name);
        put_arms.push_str(&format!(
            "{} => {{\n{WIRE}::put(&{idx}u32, __out);\n{}}}\n",
            pattern(&path, &v.fields),
            put_fields(&v.fields)
        ));
        get_arms.push_str(&format!("{idx}u32 => {},\n", ctor(&path, &v.fields)));
    }
    (
        format!("match self {{\n{put_arms}}}\n"),
        format!(
            "match <u32 as {WIRE}>::get(__in)? {{\n\
                 {get_arms}\
                 __tag => ::core::result::Result::Err(\
                     ::simcore::codec::CodecError::invalid_tag(\"{name} variant\", __tag)),\n\
             }}"
        ),
    )
}

//! Known-answer tests for sect233k1 scalar multiplication.
//!
//! The expected coordinates below were computed by the *independent*
//! reference implementation in this file: textbook affine add/double
//! formulas for a binary curve with a = 0, running entirely on the u64
//! [`GenericField`] arithmetic (a different multiplier, reducer and
//! inverter than the `Fe` path the production code uses). The constants
//! are checked in, so the production algorithms are pinned against
//! values that none of them produced.
//!
//! Every production path — binary double-and-add, width-4 wTNAF, plain
//! TNAF, the fixed-window kG ladder and the Montgomery ladder — must
//! reproduce every vector exactly.

use gf2m::generic::{GenPoly, GenericField};
use gf2m::Fe;
use koblitz::curve::{self, Affine};
use koblitz::{mul, Int};

/// An affine point for the reference implementation: `None` = infinity.
type RefPoint = Option<(GenPoly, GenPoly)>;

fn ref_from_affine(f: &GenericField, p: &Affine) -> RefPoint {
    match p {
        Affine::Infinity => None,
        Affine::Point { x, y } => Some((f.element_from_fe(*x), f.element_from_fe(*y))),
    }
}

fn ref_to_affine(f: &GenericField, p: &RefPoint) -> Affine {
    match p {
        None => Affine::Infinity,
        Some((x, y)) => Affine::new(f.element_to_fe(x), f.element_to_fe(y))
            .expect("reference point is on the curve"),
    }
}

/// Textbook affine doubling: λ = x + y/x, x3 = λ² + λ, y3 = x² + (λ+1)x3.
fn ref_double(f: &GenericField, p: &RefPoint) -> RefPoint {
    let (x, y) = match p {
        None => return None,
        Some(xy) => xy,
    };
    let x_inv = f.inv(x)?; // x = 0 is the order-2 point: 2P = ∞
    let lambda = f.add(x, &f.mul(y, &x_inv));
    let x3 = f.add(&f.sqr(&lambda), &lambda);
    let y3 = f.add(
        &f.sqr(x),
        &f.mul(&f.add(&lambda, &f.element_from_fe(Fe::ONE)), &x3),
    );
    Some((x3, y3))
}

/// Textbook affine addition (a = 0): λ = (y1+y2)/(x1+x2),
/// x3 = λ² + λ + x1 + x2, y3 = λ(x1+x3) + x3 + y1.
fn ref_add(f: &GenericField, p: &RefPoint, q: &RefPoint) -> RefPoint {
    let (x1, y1) = match p {
        None => return q.clone(),
        Some(xy) => xy,
    };
    let (x2, y2) = match q {
        None => return p.clone(),
        Some(xy) => xy,
    };
    if x1 == x2 {
        return if y1 == y2 {
            ref_double(f, p)
        } else {
            None // Q = -P = (x, x + y)
        };
    }
    let denom = f.inv(&f.add(x1, x2)).expect("x1 != x2");
    let lambda = f.mul(&f.add(y1, y2), &denom);
    let x3 = f.add(&f.add(&f.add(&f.sqr(&lambda), &lambda), x1), x2);
    let y3 = f.add(&f.add(&f.mul(&lambda, &f.add(x1, &x3)), &x3), y1);
    Some((x3, y3))
}

/// MSB-first double-and-add on `k mod n` — deliberately naive.
fn ref_mul(f: &GenericField, p: &RefPoint, k: &Int) -> RefPoint {
    let k = k.mod_positive(&curve::order());
    let mut acc: RefPoint = None;
    for i in (0..k.bits()).rev() {
        acc = ref_double(f, &acc);
        if (k.limbs()[i / 32] >> (i % 32)) & 1 == 1 {
            acc = ref_add(f, &acc, p);
        }
    }
    acc
}

/// kG known-answer vectors: (k hex, x hex, y hex) — generated by the
/// reference implementation above (`print_kat_constants`), checked in.
#[rustfmt::skip]
const KG_KAT: &[(&str, &str, &str)] = &[
    ("1", "17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126", "1db537dece819b7f70f555a67c427a8cd9bf18aeb9b56e0c11056fae6a3"),
    ("2", "1a96a52534c02824c92539163f2ed13243feb57b45adbe4cf7ec61957f6", "1f9d11ccd5ff37c021bb64dff8df25af3ebc5c3f9bfc5cb17b2203703a8"),
    ("3", "4656e0aabbe341407715ca4a7fac287b41baa1f789c29bfa27e53a7a46", "f79a7245fba513df787a64c618e97ebcc078638ebaaa562e9862bc00ce"),
    ("7", "1f6a2c4d6b9252ebc579d4082068df31f4c2bfe28011ae0dc23c5afeb2d", "a3410a3bb6a0afd7741d70c26d9c0c423e43a21484a936e640edb96e76"),
    ("deadbeef", "6443e44c462c2cde36b155318e3dff26ebb266fae89e06f288c43fd10d", "180ab69a2272ce7d931ade547dd66cabb3835d03782579b5080e38fdeeb"),
    ("100000000000000000000000000000003", "10f600eaef86bcccd6a8f2b217df063cb977ea8a3d99438fcbf0c598a4f", "16c163c440921364ce6957fa5818d480fd3fd0f64eb0938e10cf2724d72"),
    ("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abde", "17232ba853a7e731af129f22ff4149563a419c26bf50a4c9d6eefad6126", "a961c769d267c4edfe7ca84830333dae3fe848806e5cac5c7eb9578785"),
    ("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abe4", "1e6203d117ffe2c1facb632dcb11d665f96701728b7854d4d562aec4c81", "13bf8ef521fa23771c693f0ea1ff0742d0dd725e5f5b89ee35c54d396f8"),
    ("10000000000000000000000000000000000000000000000000001234567", "162eadc9785bde00e1c83fd0a6226ab294e92db75c560afdd3773b311fb", "1f24797a77ed76a6bd117ae78c40a9071c76155221f61cfe1de7d56fd7f"),
];

/// kP vectors for the fixed non-generator base P = [0xabcdef123]G:
/// (k hex, x hex, y hex).
#[rustfmt::skip]
const KP_KAT: &[(&str, &str, &str)] = &[
    ("1", "7ee254bd4b6ef6bd4d61a4224d3a5d7132a4dd039ff8a4f5c4d10c1c98", "c01810e7ea65c28152823387e234cabfe2383285bd985a520e9688a85b"),
    ("2", "c4376adce75e57451b674c46a761fa58417c579e8c53960b02346c067", "12786c4a97b1328470407626a5eb05bf39038c43cbfdb3b819c7aa5c2f9"),
    ("3", "552c5d81f4835c2e259d33772027b17b273a7a3f4df106da13b47f0241", "ddfdb5be7e685e3a5c3f8577dd16b829f8bf50cdb775a9195ae56ee68e"),
    ("7", "a0eea634128d486b190c81c350c2128c3637fa6ac56fcff40504bc8cb4", "1e88f3e5b1e351bfa74d379588f571e40cffa92cc3e4dac4cf064358bda"),
    ("deadbeef", "dd3080443db203ff5498bd808a04b218a63baec71c183571dbe3ea163f", "3726bf8a98aa5006ba0a2342f61c6936b9296a98b4a716bf28bd94f0ac"),
    ("100000000000000000000000000000003", "d167418392c7feca797cbacca886b58c8c30126798f8e3b82912f0a318", "2c7039011bcf50ca347eaa97d75075ec537b6109e7e9700ba788114319"),
    ("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abde", "7ee254bd4b6ef6bd4d61a4224d3a5d7132a4dd039ff8a4f5c4d10c1c98", "befa445aa10b343c1fe397a5af0e97ced09cef862260fea7ca4784b4c3"),
    ("8000000000000000000000000000069d5bb915bcd46efb1ad5f173abe4", "dce6f72cdb1380296c86dba1d537ec799674716671e6a583c100565efb", "1570da99307e12b820e7be02f09e82517862db08f8a6cc8b9b1f932f98a"),
    ("10000000000000000000000000000000000000000000000000001234567", "11aca91e34a69fccaf66e6cfe5fa12bf19921c69ae7c675a47eb22d7a46", "60b30a4f1c6152c28be93b794c3e97150b3780109ebafc5c04943b3fe8"),
];

/// The scalars the vectors cover: small, sparse, dense, the largest
/// valid scalar n−1, and above-order values that must reduce mod n.
fn kat_scalars() -> Vec<Int> {
    let n = curve::order();
    vec![
        Int::one(),
        Int::from(2i64),
        Int::from(3i64),
        Int::from(7i64),
        Int::from(0xdeadbeefi64),
        &Int::one().shl(128) + &Int::from(3i64),
        &n - &Int::one(),
        &n + &Int::from(5i64),
        &Int::one().shl(232) + &Int::from(0x1234567i64),
    ]
}

fn kp_base() -> Affine {
    curve::generator().mul_binary(&Int::from(0xabcdef123i64))
}

fn parse_point(x: &str, y: &str) -> Affine {
    Affine::new(
        Fe::from_hex(x).expect("KAT x parses"),
        Fe::from_hex(y).expect("KAT y parses"),
    )
    .expect("KAT point is on the curve")
}

/// Regenerates the tables above. Run with
/// `cargo test --test kat_sect233k1 -- --ignored --nocapture`.
#[test]
#[ignore = "generator for the checked-in constants"]
fn print_kat_constants() {
    let f = GenericField::sect233k1();
    for (label, base) in [("KG", curve::generator()), ("KP", kp_base())] {
        println!("{label}:");
        let rp = ref_from_affine(&f, &base);
        for k in kat_scalars() {
            let r = ref_to_affine(&f, &ref_mul(&f, &rp, &k));
            println!(
                "    (\"{}\", \"{:x}\", \"{:x}\"),",
                k.to_hex(),
                r.x(),
                r.y()
            );
        }
    }
}

#[test]
fn kat_tables_cover_every_scalar() {
    assert_eq!(KG_KAT.len(), kat_scalars().len());
    assert_eq!(KP_KAT.len(), kat_scalars().len());
    for (i, k) in kat_scalars().iter().enumerate() {
        assert_eq!(KG_KAT[i].0, k.to_hex(), "row {i} scalar drifted");
        assert_eq!(KP_KAT[i].0, k.to_hex(), "row {i} scalar drifted");
    }
}

#[test]
fn reference_implementation_reproduces_the_checked_in_vectors() {
    let f = GenericField::sect233k1();
    for (base, table) in [(curve::generator(), KG_KAT), (kp_base(), KP_KAT)] {
        let rp = ref_from_affine(&f, &base);
        for (k_hex, x_hex, y_hex) in table {
            let k = Int::from_hex(k_hex).unwrap();
            let got = ref_to_affine(&f, &ref_mul(&f, &rp, &k));
            assert_eq!(got, parse_point(x_hex, y_hex), "k = {k_hex}");
        }
    }
}

#[test]
fn all_production_kg_paths_match_the_vectors() {
    let g = curve::generator();
    for (k_hex, x_hex, y_hex) in KG_KAT {
        let k = Int::from_hex(k_hex).unwrap();
        let want = parse_point(x_hex, y_hex);
        assert_eq!(g.mul_binary(&k), want, "mul_binary, k = {k_hex}");
        assert_eq!(mul::mul_g(&k), want, "mul_g, k = {k_hex}");
        assert_eq!(mul::mul_wtnaf(&g, &k, 4), want, "wTNAF-4, k = {k_hex}");
        assert_eq!(mul::mul_tnaf(&g, &k), want, "TNAF, k = {k_hex}");
        assert_eq!(mul::montgomery_ladder(&g, &k), want, "ladder, k = {k_hex}");
    }
}

#[test]
fn all_production_kp_paths_match_the_vectors() {
    let p = kp_base();
    for (k_hex, x_hex, y_hex) in KP_KAT {
        let k = Int::from_hex(k_hex).unwrap();
        let want = parse_point(x_hex, y_hex);
        assert_eq!(p.mul_binary(&k), want, "mul_binary, k = {k_hex}");
        assert_eq!(mul::mul_wtnaf(&p, &k, 4), want, "wTNAF-4, k = {k_hex}");
        assert_eq!(mul::mul_tnaf(&p, &k), want, "TNAF, k = {k_hex}");
        assert_eq!(mul::montgomery_ladder(&p, &k), want, "ladder, k = {k_hex}");
    }
}

/// The checked-in vectors recovered through a wide `batch_to_affine`:
/// each KAT point is lifted to projective coordinates with a
/// non-trivial Z (X = x·Z, Y = y·Z²), the batch is padded to more than
/// 130 points with infinities and repeats, and the one-inversion
/// conversion must return exactly the checked-in coordinates.
#[test]
fn wide_batch_to_affine_recovers_the_vectors() {
    use koblitz::projective::{batch_to_affine, LdPoint};

    const WIDTH: usize = 131;

    let mut points = Vec::new();
    let mut want = Vec::new();
    let mut z_seed = 5u64;
    while points.len() < WIDTH {
        for (_, x_hex, y_hex) in KG_KAT.iter().chain(KP_KAT) {
            let p = parse_point(x_hex, y_hex);
            // A deterministic non-trivial Z per entry.
            let z = Fe::from_hex(&format!("{z_seed:x}")).unwrap();
            z_seed += 1;
            points.push(LdPoint {
                x: p.x() * z,
                y: p.y() * z.square(),
                z,
            });
            want.push(p);
            if points.len() % 9 == 0 {
                points.push(LdPoint::INFINITY);
                want.push(Affine::Infinity);
            }
        }
    }
    assert!(points.len() >= WIDTH, "batch is {} points", points.len());
    let got = batch_to_affine(&points);
    assert_eq!(got, want);
}

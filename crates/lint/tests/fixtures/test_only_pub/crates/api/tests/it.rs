#[test]
fn only_tests_is_one() {
    assert_eq!(api::only_tests(), 1);
}

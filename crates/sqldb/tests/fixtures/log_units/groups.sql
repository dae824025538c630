-- perfbase embedded database dump
CREATE TABLE t (a INTEGER, s TEXT);
INSERT INTO t VALUES (1, 'uno'), (3, 'three'), (4, 'four');
CREATE TABLE u (b FLOAT);
INSERT INTO u VALUES (0.5), (1.5);
